"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against a different mechanism
than the package: high-precision mpmath partial sums instead of float
recursion, adaptive quadrature instead of stable-increment telescoping,
an FFT of a dense sample instead of the coefficient recursion, a
dictionary-based convolution instead of the dense lattice path, and
piecewise increments at float offsets instead of exact integer knots.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad

from weierlab.phi import PiecewisePhi, _piecewise_diff, eval_phi

mpmath.mp.dps = 50

# A continuous wave of three pieces with kinks at 1/3 and 3/4 only; the
# knot at 1/3 has no float value in base 2.
SAW3 = PiecewisePhi(kind="saw3", breakpoints=(0, Fraction(1, 3), Fraction(3, 4), 1),
                    coeffs=((0, 5), (4, -7), (-5, 5)))


def mp_w_cos(b: int, lam: float, x, theta: float = 0.0, terms: int = 220) -> float:
    """W(x) for the cosine generator as a 50-digit partial sum.

    theta is the additive phase in radians, matching cos_phi.
    """
    lam_mp = mpmath.mpf(float(lam))
    x_mp = mpmath.mpf(float(x))
    th_mp = mpmath.mpf(float(theta))
    total = mpmath.mpf(0)
    for n in range(terms):
        arg = 2 * mpmath.pi * ((mpmath.mpf(b) ** n * x_mp) % 1) + th_mp
        total += lam_mp**n * mpmath.cos(arg)
    return float(total)


def mp_w_cos_rational(b: int, lam: float, x: Fraction, theta: float = 0.0,
                      tail: float = 1e-17) -> float:
    """W(x) for the cosine generator at an exact rational x, 50 digits.

    b^n x mod 1 is reduced in rational arithmetic, so no digit is lost
    however large b^n grows; terms run until lam^n / (1 - lam) < tail.
    """
    lam_mp = mpmath.mpf(float(lam))
    th_mp = mpmath.mpf(float(theta))
    t = Fraction(x) % 1
    total = mpmath.mpf(0)
    weight = mpmath.mpf(1)
    while weight / (1 - lam_mp) >= tail:
        total += weight * mpmath.cos(2 * mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
                                     + th_mp)
        weight *= lam_mp
        t = (t * b) % 1
    return float(total)


def mp_y_cos(b: int, lam: float, x, offsets_exact: list[Fraction],
             theta: float = 0.0) -> float:
    """Stable-direction kernel for the cosine generator, high precision.

    Offsets must be exact fractions r_n / b^n so the modular reduction
    inside the sine loses no digits.
    """
    gamma = 1 / (mpmath.mpf(b) * mpmath.mpf(float(lam)))
    x_mp = mpmath.mpf(float(x))
    th_mp = mpmath.mpf(float(theta))
    total = mpmath.mpf(0)
    for n, o in enumerate(offsets_exact, start=1):
        o_mp = mpmath.mpf(o.numerator) / mpmath.mpf(o.denominator)
        arg = 2 * mpmath.pi * ((x_mp / mpmath.mpf(b) ** n + o_mp) % 1) + th_mp
        total -= gamma**n * (-2 * mpmath.pi * mpmath.sin(arg))
    return float(total)


def piecewise_diff(phi, o, h) -> np.ndarray:
    """phi(o + h) - phi(o) for piecewise linear data, elementwise over o and
    h broadcast together, at the values of their floats.

    Steps of at least 2^-12 take the plain difference and smaller ones h
    times the slope of o's piece; a small step that crosses a breakpoint
    goes to the exact rational ``phi._piecewise_diff``.
    """
    o, h = np.broadcast_arrays(np.asarray(o, dtype=np.float64), np.asarray(h, dtype=np.float64))
    out = np.empty(o.shape)
    direct = np.abs(h) >= 2.0**-12
    out[direct] = eval_phi(phi, o[direct] + h[direct]) - eval_phi(phi, o[direct])
    small = ~direct
    flip = h[small] < 0.0  # then phi(o + h) - phi(o) = -(phi(o' + |h|) - phi(o')), o' = o + h
    lo = o[small] + np.where(flip, h[small], 0.0)
    step = np.abs(h[small])
    a = lo - np.floor(lo)
    idx = np.clip(np.searchsorted(phi._bp_float, a, side="right") - 1, 0, len(phi.coeffs) - 1)
    inside = a + step < phi._bp_float[idx + 1]
    d = step * phi._a1[idx]
    for i in np.flatnonzero(~inside):
        d[i] = float(_piecewise_diff(phi, Fraction(float(a[i])), Fraction(float(step[i]))))
    out[small] = np.where(flip, -d, d)
    return out


def piecewise_deriv_exact(phi, o: Fraction) -> float:
    """Right-limit phi'(o) at an exact rational point of piecewise data.

    The piece is found by exact comparison, so a point just below a
    breakpoint keeps its own piece even where its float rounds onto the
    breakpoint, as 1 - 2^-60 rounds to 1.
    """
    return float(phi.coeffs[phi.piece_index(o)][1])


def quad_gamma(eval_y, x: float, tol: float = 1e-11) -> float:
    """Antiderivative of the kernel by adaptive quadrature from 0 to x."""
    val, _err = quad(eval_y, 0.0, x, epsabs=tol, epsrel=tol, limit=400)
    return val


def fft_w_coefficients(params, phi_partial_sum, n_points: int = 1 << 16,
                       m_keep: int = 64) -> dict[int, complex]:
    """Fourier coefficients of W from an FFT of a dense truncated sample.

    The callable must evaluate a partial sum whose highest frequency
    stays below n_points / 2 so the FFT sees no aliasing.
    """
    xs = np.arange(n_points) / n_points
    vals = phi_partial_sum(xs)
    coef = np.fft.fft(vals) / n_points
    out: dict[int, complex] = {}
    for m in range(-m_keep, m_keep + 1):
        out[m] = complex(coef[m % n_points])
    return out


def dict_convolution_entropy(keys_a, mass_a, keys_b, mass_b, log_base: float):
    """Entropy of the cell-index sum distribution, via explicit pairs."""
    pa = np.asarray(mass_a, dtype=float)
    pb = np.asarray(mass_b, dtype=float)
    pa = pa / pa.sum()
    pb = pb / pb.sum()
    sums: dict[int, float] = {}
    for i, ka in enumerate(keys_a):
        for j, kb in enumerate(keys_b):
            key = int(ka) + int(kb)
            sums[key] = sums.get(key, 0.0) + pa[i] * pb[j]
    pv = np.array(list(sums.values()))
    pv = pv[pv > 0]
    return float(-(pv * np.log(pv)).sum() / np.log(log_base))


def central_difference(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def shannon_entropy_counts(counts, log_base: float) -> float:
    """Entropy of a count vector, the direct formula."""
    c = np.asarray(counts, dtype=float)
    c = c[c > 0]
    p = c / c.sum()
    return float(-(p * np.log(p)).sum() / np.log(log_base))
