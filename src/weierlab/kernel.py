"""Stable-direction kernel, flow projections, and code-separation scans.

A code j = (j_1, j_2, ...) over the alphabet {0, .., b-1} selects a backward
orbit of x -> b x mod 1.  The kernel

    Y(x, j) = - sum_{n >= 1} gamma^n phi'(x / b^n + o_n(j)),
    o_n(j) = (j_1 + j_2 b + ... + j_n b^(n-1)) / b^n,

is the direction field whose flow projection pi_j(x, y) = y - Gamma_j(x),
with Gamma_j the antiderivative of Y(., j) vanishing at 0, intertwines the
graph IFS g_i(x, y) = ((x + i) / b, lam y + phi((x + i) / b)) up to an
affine change recorded by the transition identity.  ``apply_word`` pushes
a single point or a whole array of points through a word's maps.

Offsets o_n are kept as exact integers r_n / b^n, and Gamma sums stable
increments of phi (``phi.phi_diff_vec``) rather than differences of nearby
evaluations, so the identities hold to within a few units of the requested
tolerance even at term counts near one hundred.  For a piecewise generator
the scalar Y takes phi' on the piece of the exact argument wherever the
float argument lies within rounding of a breakpoint.

On arrays, Gamma for a real Fourier generator factors into an x-only and a
code-only matrix.  The generator hands over its frequencies k > 0 and
w_k = c_k + conj c_-k (``FourierPhi.freqs`` and ``.w``); with h_m = x / b^m
and z = w_k e^{2 pi i k o_m}, each increment is

    lam^-m [phi(o_m + h_m) - phi(o_m)]
        = - sum_{k > 0} lam^-m (Re z vers(2 pi k h_m) + Im z sin(2 pi k h_m)),

with vers t = 1 - cos t, so Gamma(X, codes) = E(X) @ C(codes): E holds
vers(2 pi k h_m) and sin(2 pi k h_m) for the shallow depths, C the matching
code factors lam^-m Re z and lam^-m Im z, and one column of x times each
code's linear-tail coefficient covers the depths where h_m < 2^-24 (the
increment is first order there).  The angles of E are 2 pi k x / b^m, each
b times the next deeper one, so ``_sin_vers`` takes two sines per point and
frequency at the deepest depth and climbs to the others by doubling and
angle addition in (sin, vers) form; that stays within about 1e-15 of
direct sines, where a (cos, sin) rotation would drift by b^n0 ulps.
``eval_gamma_many`` builds C once and E in row blocks.  Only Fourier data
take the linear tail, within the bound of ``eval_gamma_many``.
``funcspace.gamma_at_many_words`` factors the deep depths of its word
codes through the same climb.

Piecewise generators do not factor; ``_piecewise_gamma`` is their one
vectorized Gamma, for ``eval_gamma_many`` and ``gamma_at_many_words``
alike.  In units of b^-m the offset at depth m is an integer, and each
increment is the slope of that integer's piece times x plus one ramp per
knot that x crosses, placed by integer compares: exact to rounding at
every depth, with no float offset and no linear tail.

Y = Gamma' on arrays is the x-derivative of these two engines.  For
Fourier data only C changes: with w = gamma^m 2 pi k w_k e^{2 pi i k o_m},
depth m <= n0 adds Re w sin(2 pi k h_m) - Im w vers(2 pi k h_m) + Im w,
and the deeper depths take phi'(o_m + h_m) to third order in h_m (x
enters through E's linear-tail row).  For piecewise data each ramp
becomes its right-derivative step.  The scans that compare two codes
take both from one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import phi as phimod
from ._util import golden_refine, substream

__all__ = [
    "Code",
    "periodic_code",
    "seeded_code",
    "code_offsets",
    "code_offsets_exact",
    "eval_y",
    "eval_y_vec",
    "eval_y_deriv",
    "eval_gamma",
    "eval_gamma_vec",
    "eval_gamma_many",
    "project",
    "apply_ifs",
    "apply_word",
    "transition_residual",
    "SeparationResult",
    "separation_sup",
    "HScanReport",
    "condition_h_scan",
    "h_scan_to_csv",
    "interval_regularity",
    "KRegularityReport",
    "k_regularity",
    "TransversalityReport",
    "transversality_certificate",
    "transversality_pairs",
    "transversality_stability",
    "certificate_to_csv",
]


_SEED_BLOCK = 1 << 10
_seed_cache: dict[tuple, np.ndarray] = {}


def _seeded_symbols(b: int, key: tuple, upto: int) -> np.ndarray:
    """Deterministic symbol stream for a seeded code, grown in blocks.

    The whole prefix regenerates from scratch at each growth step, so the
    values at any index never depend on the access pattern.
    """
    cached = _seed_cache.get((b, key))
    if cached is not None and len(cached) >= upto:
        return cached
    size = _SEED_BLOCK
    while size < upto:
        size *= 2
    rng = substream(key[0], *key[1:]) if key else substream(0)
    arr = rng.integers(0, b, size=size, dtype=np.int64)
    _seed_cache[(b, key)] = arr
    return arr


@dataclass(frozen=True)
class Code:
    """One-sided symbol sequence over {0, .., b-1}, eventually periodic or seeded.

    Exactly one backing is active: a nonempty ``cycle`` makes the code
    eventually periodic after ``preperiod``; a ``seed`` key makes the tail a
    reproducible random stream (the nu-typical case).
    ``symbol`` is O(1) either way.
    """

    b: int
    preperiod: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()
    seed: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (len(self.cycle) == 0) == (self.seed is None):
            raise ValueError("exactly one of cycle or seed must back the tail")
        for s in self.preperiod + self.cycle:
            if not 0 <= s < self.b:
                raise ValueError(f"symbol {s} out of range for b = {self.b}")

    def symbol(self, n: int) -> int:
        if n < 0:
            raise IndexError("symbol index must be nonnegative")
        k = len(self.preperiod)
        if n < k:
            return self.preperiod[n]
        if self.cycle:
            return self.cycle[(n - k) % len(self.cycle)]
        idx = n - k
        return int(_seeded_symbols(self.b, self.seed, idx + 1)[idx])

    def prepend(self, symbols: Sequence[int]) -> "Code":
        return replace(self, preperiod=tuple(int(s) for s in symbols) + self.preperiod)


def periodic_code(b: int, preperiod: Sequence[int] = (), cycle: Sequence[int] = (0,)) -> Code:
    return Code(b=b, preperiod=tuple(preperiod), cycle=tuple(cycle))


def seeded_code(b: int, *key: int) -> Code:
    """nu-typical code backed by the keyed substream of the root seed."""
    return Code(b=b, seed=tuple(int(k) for k in key))


_offset_cache: dict[tuple[Code, int], tuple[float, ...]] = {}


def _offset_ratios(code: Code, count: int):
    """(r_n, b^n) for n = 1 .. count, with o_n = r_n / b^n."""
    r, bn = 0, 1
    for n in range(count):
        r += code.symbol(n) * bn
        bn *= code.b
        yield r, bn


def code_offsets(code: Code, count: int) -> np.ndarray:
    """Offsets o_1 .. o_count as floats, each correctly rounded from r_n / b^n."""
    hit = _offset_cache.get((code, count))
    if hit is None:
        hit = tuple(r / bn for r, bn in _offset_ratios(code, count))
        if len(_offset_cache) > 65536:
            _offset_cache.clear()
        _offset_cache[(code, count)] = hit
    return np.array(hit, dtype=np.float64)


def code_offsets_exact(code: Code, count: int) -> list[Fraction]:
    return [Fraction(r, bn) for r, bn in _offset_ratios(code, count)]


def _require_c1(phi: phimod.Phi, opname: str) -> None:
    if isinstance(phi, phimod.PiecewisePhi) and phi.smoothness < 0:
        raise ValueError(f"{opname} needs a generator with a derivative; "
                         f"{phi.kind} is discontinuous")


def _y_term_count(params, phi: phimod.Phi, tol: float) -> int:
    from .weier import term_count

    sup1 = phimod.sup_deriv(phi, 1)
    return term_count(params.gamma, sup1, tol)


def _require_finite(finite: bool) -> None:
    if not finite:
        raise ValueError("Gamma and Y need finite points")


def _y_sum(params, phi: phimod.Phi, x, code: Code, n: int, k: int):
    """-sum_{m=1..n} gamma^m b^(-k m) phi^(k+1)(x / b^m + o_m): Y's depth sum
    (k = 0) or its k-th x-derivative, by ``math.fsum`` for each element of x.

    A piecewise generator (k = 0 only) takes phi' on the piece of the exact
    argument wherever the float argument lies within rounding of a
    breakpoint, since o_m = 1 - 2^-60 rounds onto 1: the piece comes from
    integer compares of x = p / q and o_m = r_m / b^m with the breakpoints.
    A float x gives a float, an array an array of its shape.
    """
    x = np.asarray(x, dtype=np.float64)
    _require_finite(np.isfinite(x).all())
    if n == 0:
        return 0.0 if x.ndim == 0 else np.zeros(x.shape)
    depths = np.arange(1, n + 1)
    scales = float(params.b) ** -depths
    args = x[..., None] * scales + code_offsets(code, n)
    vals = phimod.eval_phi(phi, args, k + 1)
    if isinstance(phi, phimod.PiecewisePhi):
        near = np.nonzero(phimod.near_breakpoint(phi, args))
        ratios = list(_offset_ratios(code, int(near[-1].max()) + 1)) if len(near[-1]) else []
        for *pos, i in zip(*near):
            p, q = float(x[tuple(pos)]).as_integer_ratio()
            r, bm = ratios[i]  # x / b^m + o_m = (p + r q) / den, taken mod 1
            den = q * bm
            num = (p + r * q) % den
            piece = sum(num * t.denominator >= t.numerator * den for t in phi.breakpoints[1:-1])
            vals[(*pos, i)] = phi._a1[piece]
    terms = (params.gamma ** depths * scales**k * vals).reshape(-1, n).tolist()
    sums = np.array([-math.fsum(row) for row in terms])
    return float(sums[0]) if x.ndim == 0 else sums.reshape(x.shape)


def eval_y(params, phi: phimod.Phi, x, code: Code, tol: float = 1e-10):
    """Kernel value Y(x, code) to within tol, at a float or over an array.

    The truncation count N satisfies gamma^(N+1) sup|phi'| / (1 - gamma)
    <= tol in closed form.  Each point's depths are summed by
    ``math.fsum``, so an array gives bit for bit the values of one call
    per point.  Piecewise generators use their right-limit derivative at
    breakpoints, decided on the exact argument.  A discontinuous wave is
    rejected.
    """
    _require_c1(phi, "eval_y")
    return _y_sum(params, phi, x, code, _y_term_count(params, phi, tol), 0)


def eval_y_vec(params, phi: phimod.Phi, xs: np.ndarray, code: Code,
               tol: float = 1e-10) -> np.ndarray:
    """Y(x, code) over an array of points: the one-code column of the engine
    behind ``eval_gamma_many``, differentiated in x.

    For a real Fourier generator the depths m <= n0 use Gamma's own
    matrix E and the deeper ones a third-order tail, so the result agrees
    with the scalar ``eval_y`` to about 1e-13 relative to max(1, |Y|) for
    points in [-1, 2].  Piecewise data are exact to rounding, ties with a
    knot included.
    """
    return _eval_many(params, phi, xs, [code], tol, deriv=True)[..., 0]


def _y_gap(params, phi: phimod.Phi, xs: np.ndarray, u: Code, v: Code, tol: float):
    """Y(xs, u) - Y(xs, v), both codes from one call of the engine."""
    y = _eval_many(params, phi, xs, [u, v], tol, deriv=True)
    return y[..., 0] - y[..., 1]


def eval_y_deriv(params, phi: phimod.Phi, x, code: Code, k: int, tol: float = 1e-8):
    """k-th derivative of Y(., code) at a float or over an array, k >= 1;
    needs a C^(k+1) generator, so ``sup_deriv`` refuses a piecewise linear
    one with ValueError."""
    if k < 1:
        raise ValueError("k must be at least 1; use eval_y for the kernel itself")
    from .weier import term_count

    ratio = params.gamma / float(params.b) ** k
    supk = phimod.sup_deriv(phi, k + 1)
    n = term_count(ratio, supk, tol) if ratio < 1.0 else term_count(params.gamma, supk, tol)
    return _y_sum(params, phi, x, code, n, k)


def eval_gamma(params, phi: phimod.Phi, x: float, code: Code, tol: float = 1e-10) -> float:
    """Antiderivative Gamma(x, code) = integral of Y(., code) from 0 to x.

    Termwise the integral is exact:

        Gamma(x) = - sum_n lam^(-n) [phi(x / b^n + o_n) - phi(o_n)],

    and each bracket is a stable increment (product formulas for Fourier
    data, exact rational splitting for piecewise data), so no cancellation
    occurs even when x / b^n is far below machine epsilon.  Gamma(0) = 0
    exactly.  Each term is carried as g_n times the increment over h_n, with
    h_n = x / b^n and the decaying g_n = gamma^n x, so no factor leaves
    float range even past a thousand terms (lam near 1/b); where h_n
    underflows, Fourier data take the first-order limit phi'(o_n), and
    piecewise quotients are exact rationals.
    """
    _require_c1(phi, "eval_gamma")
    _require_finite(math.isfinite(x))
    if x == 0.0:
        return 0.0
    n = _y_term_count(params, phi, tol)
    if n == 0:
        return 0.0
    terms = []
    g = x
    if isinstance(phi, phimod.PiecewisePhi):
        xf = Fraction(float(x))
        offs_exact = code_offsets_exact(code, n)
        bn = 1
        for m in range(1, n + 1):
            bn *= params.b
            g *= params.gamma
            h = xf / bn
            terms.append(-g * float(phimod._piecewise_diff(phi, offs_exact[m - 1], h) / h))
    else:
        offs = code_offsets(code, n)
        h = x
        for m in range(1, n + 1):
            g *= params.gamma
            h /= params.b
            o = float(offs[m - 1])
            if abs(h) < sys.float_info.min:
                quotient = phimod.eval_phi(phi, o, 1)
            else:
                quotient = float(phimod.phi_diff_vec(phi, o, h)) / h
            terms.append(-g * quotient)
    return math.fsum(terms)


_LINEARIZE_BELOW = 2.0**-24  # x / b^m below this: the increment is first order in x
_BLOCK_BYTES = 1 << 22  # largest matrix of one row block of Gamma


def _block_rows(cols: int) -> int:
    """Rows per block: the largest power of two whose rows of ``cols``
    floats fit in _BLOCK_BYTES."""
    return 1 << max(0, (_BLOCK_BYTES // (8 * cols)).bit_length() - 1)


def _sin_vers(ang: np.ndarray, b: int, sin_out: np.ndarray, vers_out: np.ndarray) -> None:
    """Fill sin_out[r] and vers_out[r] with sin and 1 - cos of b^(n-1-r) ang, n = len(sin_out).

    Two sines give the last row; each row above is b times the angle of the
    row below, by doubling and angle addition in (sin, 1 - cos) form:

        sin 2t = 2 sin t (1 - vers t),  vers 2t = 2 sin^2 t,
        sin(t + u) = sin t (1 - vers u) + sin u (1 - vers t),
        vers(t + u) = vers t (1 - vers u) + vers u + sin t sin u.

    Every term scales with the angle, so rounding stays relative to the
    row's own size; a (cos, sin) rotation instead carries an absolute error
    of about one ulp of cos ~ 1 that the climb multiplies by b per row.
    Against 40-digit sines it is within 1e-15 for b in 2..10 over the
    depths of ``_gamma_blocks``.
    """
    np.sin(ang, out=sin_out[-1])
    np.sin(0.5 * ang, out=vers_out[-1])
    vers_out[-1] **= 2
    vers_out[-1] *= 2.0
    cos_u, tmp, prod = np.empty_like(ang), np.empty_like(ang), np.empty_like(ang)
    for r in range(len(sin_out) - 2, -1, -1):
        s_u, v_u = sin_out[r + 1], vers_out[r + 1]
        s, v = sin_out[r], vers_out[r]
        src_s, src_v = s_u, v_u
        for bit in bin(b)[3:]:  # b's binary digits after the leading one
            np.subtract(1.0, src_v, out=tmp)  # double
            np.multiply(src_s, src_s, out=v)
            v *= 2.0
            np.multiply(src_s, tmp, out=s)
            s *= 2.0
            src_s, src_v = s, v
            if bit == "1":  # add u
                np.subtract(1.0, v_u, out=cos_u)
                np.subtract(1.0, v, out=tmp)
                tmp *= s_u
                np.multiply(s, s_u, out=prod)
                s *= cos_u
                s += tmp
                v *= cos_u
                v += v_u
                v += prod


def _piecewise_gamma(params, phi: phimod.PiecewisePhi, x: np.ndarray, idx, width: int,
                     base: Code, n: int, deriv: bool = False) -> np.ndarray:
    """Gamma(x) along the codes reverse(word) + base, over depths 1 .. n, for
    piecewise data; shape (len(x), len(idx)), one column per word index.
    With ``deriv`` it is Y = Gamma' instead.

    Depth m works in units of b^-m, where the offset is the integer y0 =
    idx mod b^m for m <= width and idx + b^width r_s(base) for m = width +
    s.  The increment b^m [phi((y0 + x) / b^m) - phi(y0 / b^m)] is the
    slope of y0's piece times x, plus jump (x - kappa)+ for each knot
    b^m (k + t_j) at kappa = knot - y0 > 0 that x passes, or jump (kappa -
    x)+ for kappa <= 0.  kappa is an exact integer plus a fraction, and
    y0's piece comes from integer compares, so the sum is exact to
    rounding at every depth.  Its right derivative, the slope plus jump
    [x >= kappa] for kappa > 0 or minus jump [x < kappa] for kappa <= 0,
    compares x with the correctly rounded kappa, and where the two floats
    are equal, with the exact one.
    """
    b, bw = params.b, params.b**width
    x = np.asarray(x, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    lo, hi = math.floor(x.min(initial=0.0)), math.ceil(x.max(initial=0.0))  # integers around [x, 0]
    slopes = [a1 for _, a1 in phi.coeffs]
    kinks = [(t.numerator, t.denominator, float(s - slopes[j - 1]))
             for j, (t, s) in enumerate(zip(phi.breakpoints, slopes)) if s != slopes[j - 1]]
    coef = np.zeros(len(idx))  # sum over depths of gamma^m times the slope of y0's piece
    ramps = np.zeros((len(x), len(idx)))  # the knots' ramps, or their steps for Y
    shifts = [bw * r for r, _ in _offset_ratios(base, n - width)]
    bm = b**n
    for m in range(n, 0, -1):  # deepest first: the small terms add up before the large ones
        g = params.gamma**m
        # y0 = shift + v with 0 <= v < span
        v, shift, span = (idx % bm, 0, bm) if m <= width else (idx, shifts[m - width - 1], bw)
        cuts = [min(max(-(-bm * t.numerator // t.denominator) - shift, 0), span)
                for t in phi.breakpoints[1:-1]]  # y0 >= b^m t  <=>  v >= cut
        coef += g * phi._a1[np.searchsorted(cuts, v, side="right")]
        for p, q, jump in kinks:  # the knots b^m (k + p/q) with knot - shift in [lo, span - 1 + hi]
            k0 = -((p * bm - (shift + lo) * q) // (bm * q))
            k1 = ((shift + span - 1 + hi) * q - p * bm) // (bm * q)
            for k in range(k0, k1 + 1):
                c, rem = divmod(bm * (k * q + p) - shift * q, q)  # kappa = c - v + rem / q
                near = np.flatnonzero((v >= c - hi) & (v <= c + 1 - lo))
                if not deriv:
                    kappa = (c - v[near]) + rem / q
                    sign = np.where(kappa > 0.0, 1.0, -1.0)
                    ramps[:, near] += (g * jump) * np.maximum(sign * (x[:, None] - kappa), 0.0)
                    continue
                num = (c - v[near]) * q + rem  # a small integer, so num / q is rounded once
                kappa = num / q
                past = (x[:, None] >= kappa).astype(np.float64)
                if q & (q - 1):  # inexact kappa: a point equal to its float takes the exact one
                    for i, j in zip(*np.nonzero(x[:, None] == kappa)):
                        past[i, j] = Fraction(float(x[i])) >= Fraction(int(num[j]), q)
                ramps[:, near] += (g * jump) * (past - (num <= 0))
        bm //= b
    ramps += coef if deriv else np.multiply.outer(x, coef)
    return -ramps


def _gamma_blocks(params, phi: phimod.Phi, xs: np.ndarray, codes: Sequence[Code],
                  tol: float, deriv: bool = False):
    """Yield (slice, Gamma on xs[slice] for every code) over row blocks of the
    flat array ``xs``, or Y = Gamma' with ``deriv``; each block is a (rows,
    len(codes)) matrix of at most about 4 MB, as is each block of the
    matrix E behind it for Fourier data.  Piecewise data run
    ``_piecewise_gamma`` once per code over all of xs.
    """
    _require_c1(phi, "eval_y_vec" if deriv else "eval_gamma_many")
    _require_finite(np.isfinite(xs).all())
    codes = list(codes)
    n = _y_term_count(params, phi, tol)
    if isinstance(phi, phimod.PiecewisePhi):
        cols = np.empty((len(xs), len(codes)))
        for j, code in enumerate(codes):
            cols[:, j] = _piecewise_gamma(params, phi, xs, [0], 0, code, n, deriv)[:, 0]
        rows = _block_rows(max(len(codes), 1))
        for a in range(0, len(xs), rows):
            yield slice(a, a + rows), cols[a:a + rows]
        return
    n0 = 0
    width = 1.0
    while n0 < n and width > _LINEARIZE_BELOW:
        n0 += 1
        width /= params.b
    offs = np.array([code_offsets(c, n) for c in codes]).reshape(len(codes), n)
    gam = params.gamma ** np.arange(1, n + 1)
    linear = n0 < n
    d1 = phimod.eval_phi(phi, offs, 1).reshape(len(codes), n)
    tail = d1[:, n0:] @ gam[n0:]  # sum over the linear depths of gamma^m phi'(o_m), per code
    freqs = phi.freqs if n0 else ()
    scales = gam[:n0] if deriv else np.cumprod(np.full(n0, 1.0 / params.lam))
    const = -tail
    parts = []
    for k, wk in zip(freqs, phi.w):
        z = scales * wk * np.exp(2j * math.pi * k * offs[:, :n0])
        if deriv:  # d/dx: vers -> 2 pi k b^-m sin, sin -> 2 pi k b^-m (1 - vers)
            z *= 2.0 * math.pi * k
            parts += [-z.imag, z.real]
            const += z.imag.sum(axis=1)
        else:
            parts += [z.real, z.imag]
    quad = np.zeros(len(codes))
    if linear and deriv:  # phi'(o_m + h_m) to third order: -tail, x in E's last row, and x^2
        deep, ms = offs[:, n0:], np.arange(n0 + 1, n + 1)
        parts.append(-(phimod.eval_phi(phi, deep, 2) @ (params.gamma / params.b) ** ms)[:, None])
        quad = -0.5 * (phimod.eval_phi(phi, deep, 3) @ (params.gamma / params.b**2) ** ms)
    elif linear:
        parts.append(-tail[:, None])
    cmat = np.concatenate(parts, axis=1).T if parts else np.zeros((0, len(codes)))
    rows = _block_rows(max(len(cmat), len(codes), 1))
    # E is held transposed, one contiguous row per column, and reused by every block
    e_buf = np.empty((len(cmat), min(rows, len(xs))))
    for a in range(0, len(xs), rows):
        sl = slice(a, a + rows)
        x = xs[sl]
        e = e_buf[:, :len(x)]
        for i, k in enumerate(freqs):  # 1 - cos and sin of 2 pi k h_m, m = 1 .. n0
            _sin_vers((2.0 * math.pi * k / float(params.b) ** n0) * x, params.b,
                      e[(2 * i + 1) * n0:(2 * i + 2) * n0], e[2 * i * n0:(2 * i + 1) * n0])
        if linear:
            e[-1] = x
        yield sl, (e.T @ cmat + const + np.multiply.outer(x * x, quad) if deriv else e.T @ cmat)


def _eval_many(params, phi: phimod.Phi, xs: np.ndarray, codes: Sequence[Code], tol: float,
               deriv: bool) -> np.ndarray:
    """Gamma, or Y with ``deriv``, for every point and code; shape xs.shape + (len(codes),)."""
    xs = np.asarray(xs, dtype=np.float64)
    codes = list(codes)
    out = np.empty((xs.size, len(codes)))
    for sl, vals in _gamma_blocks(params, phi, xs.ravel(), codes, tol, deriv):
        out[sl] = vals
    return out.reshape(xs.shape + (len(codes),))


def eval_gamma_many(params, phi: phimod.Phi, xs: np.ndarray, codes: Sequence[Code],
                    tol: float = 1e-10) -> np.ndarray:
    """Gamma(x, code) for every point and every code, shape xs.shape + (len(codes),).

    For a real Fourier generator this is the product E(xs) @ C(codes) of
    the module docstring, with C built once per call and E one row block at
    a time; E's sines and versines come from two sines per point and
    frequency and the multiple-angle climb, within about 1e-15 of direct
    sines.  For points in [0, 1), depths m <= n0, the first with b^-n0 <=
    2^-24, sum stable increments; below that the increment is first order
    in x and the deeper depths collapse into x times one linear coefficient
    per code, sum_{m > n0} gamma^m phi'(o_m).  The linearization error is
    bounded by 2^-24 sup|phi''| gamma^n0 / (2 (1 - gamma)); it concerns
    Fourier data only.  Piecewise data take ``_piecewise_gamma`` once per
    code and are exact to rounding.  Identity-grade comparisons of Fourier
    data should use the scalar ``eval_gamma``.
    """
    return _eval_many(params, phi, xs, codes, tol, deriv=False)


def eval_gamma_vec(params, phi: phimod.Phi, xs: np.ndarray, code: Code,
                   tol: float = 1e-10) -> np.ndarray:
    """Gamma(x, code) over an array of points: the one-code column of
    ``eval_gamma_many``, with its linearization bound for Fourier data;
    piecewise data are exact to rounding."""
    return eval_gamma_many(params, phi, xs, [code], tol)[..., 0]


def project(params, phi: phimod.Phi, x: float, y: float, code: Code,
            tol: float = 1e-10) -> float:
    """Flow projection pi_code(x, y) = y - Gamma(x, code)."""
    return y - eval_gamma(params, phi, x, code, tol)


def apply_ifs(params, phi: phimod.Phi, i: int, x, y):
    """One graph map g_i(x, y) = ((x + i) / b, lam y + phi((x + i) / b)).

    x and y are floats or arrays of points; arrays map elementwise.
    """
    if not 0 <= i < params.b:
        raise ValueError(f"symbol {i} out of range for b = {params.b}")
    xn = (x + i) / params.b
    return xn, params.lam * y + phimod.eval_phi(phi, xn)


def apply_word(params, phi: phimod.Phi, word: Sequence[int], x, y):
    """Compose the maps named by the word, rightmost symbol acting first.

    The word lists the base-b digits of the image interval most significant
    first, so the x image of (x, y) under the word u is
    (x + u_n + u_{n-1} b + ... ) / b^n and the empty word is the identity.
    Points are floats or arrays, as in ``apply_ifs``: this is the one word
    push, for single points and for whole samples alike.
    """
    syms = tuple(int(s) for s in word)
    for s in reversed(syms):
        x, y = apply_ifs(params, phi, s, x, y)
    return x, y


def transition_residual(
    params,
    phi: phimod.Phi,
    word: Sequence[int],
    code: Code,
    x: float,
    y: float,
    tol: float = 1e-12,
) -> float:
    """Defect of the transition identity at one point; at most 4 tol.

    pi_code(g_u(x, y)) should equal
    lam^|u| pi_{reverse(u) code}(x, y) + pi_code(g_u(0, 0)).
    """
    syms = tuple(int(s) for s in word)
    gx, gy = apply_word(params, phi, syms, x, y)
    lhs = project(params, phi, gx, gy, code, tol)
    zx, zy = apply_word(params, phi, syms, 0.0, 0.0)
    anchor = project(params, phi, zx, zy, code, tol)
    shifted = code.prepend(tuple(reversed(syms)))
    rhs = params.lam ** len(syms) * project(params, phi, x, y, shifted, tol) + anchor
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# separation scans

_EPS_H = 1e-6  # separation floor above which a scan reads as H-evidence
_EPS_STAR = 1e-8  # separation ceiling below which it reads as H*-evidence


@dataclass
class SeparationResult:
    sup: float
    argmax: float
    identical: bool
    grid_size: int


def separation_sup(
    params,
    phi: phimod.Phi,
    u: Code,
    v: Code,
    grid_size: int = 1 << 12,
    refine: bool = True,
    tol: float = 1e-10,
) -> SeparationResult:
    """sup_x |Y(x, u) - Y(x, v)| over a dyadic grid with golden refinement.

    Structurally identical codes short-circuit to zero with the
    ``identical`` flag set.  Raw grid maxima are monotone under grid
    nesting; with refinement the value is stable to about a percent across
    grid sizes once the kernel difference is resolved.
    """
    if u == v:
        return SeparationResult(sup=0.0, argmax=0.0, identical=True, grid_size=grid_size)
    xs = np.arange(grid_size, dtype=np.float64) / grid_size
    diff = np.abs(_y_gap(params, phi, xs, u, v, tol))
    i = int(np.argmax(diff))
    best_x, best = float(xs[i]), float(diff[i])
    if refine:
        xr, vr = golden_refine(
            lambda t: np.abs(eval_y(params, phi, t, u, tol) - eval_y(params, phi, t, v, tol)),
            [max(0.0, best_x - 1.0 / grid_size)], [min(1.0, best_x + 1.0 / grid_size)])
        if vr[0] > best:
            best_x, best = float(xr[0]), float(vr[0])
    return SeparationResult(sup=best, argmax=best_x, identical=False, grid_size=grid_size)


@dataclass
class HScanReport:
    rows: list[tuple[str, str, int, float]]  # (u_prefix, v_prefix, sample, sep)
    min_sep: float
    max_sep: float
    classification: str
    eps_h: float
    eps_star: float


def condition_h_scan(
    params,
    phi: phimod.Phi,
    depth: int = 1,
    samples_per_pair: int = 4,
    seed: int = 0,
    grid_size: int = 1 << 12,
    tol: float = 1e-10,
) -> HScanReport:
    """Separation statistics over prefix pairs with distinct first symbols.

    Every unordered pair of depth-``depth`` prefixes whose first symbols
    differ is paired with ``samples_per_pair`` independent seeded tails.
    Evidence labels: separation floor above eps_h = max(1e-6, 2 tol)
    suggests distinct directions everywhere (the generic regime); a
    ceiling below eps_star = max(1e-8, 2 tol) suggests all directions
    coincide (the smooth regime); anything else is inconclusive.  2 tol
    is ``_degenerate_floor``: two codes' truncated series differ by up to
    that much where their directions agree.  The report keeps both
    thresholds.  Labels are evidence, not proof.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if samples_per_pair < 1:
        raise ValueError("samples_per_pair must be at least 1")
    b = params.b
    prefixes = [tuple(w) for w in np.ndindex(*([b] * depth))]
    rows: list[tuple[str, str, int, float]] = []
    seps: list[float] = []
    pair_index = 0
    for a_i, pa in enumerate(prefixes):
        for pb in prefixes[a_i + 1:]:
            if pa[0] == pb[0]:
                continue
            for s in range(samples_per_pair):
                u = Code(b=b, preperiod=pa, seed=(seed, pair_index, s, 0))
                v = Code(b=b, preperiod=pb, seed=(seed, pair_index, s, 1))
                r = separation_sup(params, phi, u, v, grid_size, refine=True, tol=tol)
                word_a = "".join(map(str, pa))
                word_b = "".join(map(str, pb))
                rows.append((word_a, word_b, s, r.sup))
                seps.append(r.sup)
            pair_index += 1
    min_sep, max_sep = min(seps), max(seps)
    eps_h = max(_EPS_H, _degenerate_floor(tol))
    eps_star = max(_EPS_STAR, _degenerate_floor(tol))
    if min_sep > eps_h:
        klass = "H-evidence"
    elif max_sep < eps_star:
        klass = "H*-evidence"
    else:
        klass = "inconclusive"
    return HScanReport(rows=rows, min_sep=min_sep, max_sep=max_sep,
                       classification=klass, eps_h=eps_h, eps_star=eps_star)


def h_scan_to_csv(report: HScanReport) -> str:
    lines = ["u_prefix,v_prefix,seed,sep"]
    for ua, vb, s, sep in report.rows:
        lines.append(f"{ua},{vb},{s},{sep!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interval regularity


_CHEB_NODES = 0.5 * (1.0 + np.cos(np.pi * np.arange(129) / 128.0))


def _intervals_inf_sup(idx: np.ndarray, cells: int,
                       grid_at: Callable[[np.ndarray], np.ndarray],
                       probe_at: Callable[[np.ndarray], np.ndarray]):
    """inf and sup of |f| on each interval [i / cells, (i + 1) / cells), i in idx.

    ``grid_at`` evaluates f on the 129 Chebyshev nodes of every interval in
    one call.  Then one lockstep golden search runs over 2 len(idx)
    brackets of width 1 / (32 cells), one around each interval's grid
    minimum and one around its grid maximum, with ``probe_at`` taking one
    point per bracket per step.  The refinement can only lower the inf and
    raise the sup, and each interval gets the values a search of its own
    would give.
    """
    count = len(idx)
    lo = idx / cells
    width = 1.0 / cells
    xs = lo[:, None] + width * _CHEB_NODES
    vals = np.abs(grid_at(xs))
    rows = np.tile(np.arange(count), 2)
    nodes = np.concatenate([np.argmin(vals, axis=1), np.argmax(vals, axis=1)])
    x_ext, v_ext = xs[rows, nodes], vals[rows, nodes]
    sign = np.repeat([-1.0, 1.0], count)  # the min brackets maximize -|f|
    _, best = golden_refine(lambda t: sign * np.abs(probe_at(t)),
                            np.maximum(lo[rows], x_ext - width / 64),
                            np.minimum(lo[rows] + width, x_ext + width / 64))
    return np.minimum(-best[:count], v_ext[:count]), np.maximum(best[count:], v_ext[count:])


def _degenerate_floor(tol: float) -> float:
    """2 tol, the truncation bound of a difference of two codes' series."""
    return 2.0 * tol


def interval_regularity(
    b: int,
    level: int,
    k_max: int,
    deriv_eval: Callable[[int, np.ndarray], np.ndarray],
    tol: float = 1e-10,
) -> list[tuple[int, int | None, float, float]]:
    """Per level-``level`` interval, the least order k <= k_max whose |f^(k)|
    has sup above 2 tol and at most twice its inf, with that sup and inf.

    ``deriv_eval(k, xs)`` must return f^(k) on an array of points to within
    ``tol``.  Each order takes the 129 Chebyshev nodes of every interval
    still open in one call and refines all their extrema in one lockstep
    golden search, so the procedure is deterministic and reproducible bit
    for bit.
    """
    cells = b**level
    rows: list[tuple[int, int | None, float, float]] = [(i, None, 0.0, 0.0) for i in range(cells)]
    idx = np.arange(cells)
    for k in range(1, k_max + 1):
        f = partial(deriv_eval, k)
        inf, sup = _intervals_inf_sup(idx, cells, f, f)
        done = (sup <= 2.0 * inf) & (sup > _degenerate_floor(tol))
        for i, ok, lo_v, hi_v in zip(idx.tolist(), done.tolist(), inf.tolist(), sup.tolist()):
            rows[i] = (i, k if ok else None, lo_v, hi_v)
        idx = idx[~done]
    return rows


@dataclass
class KRegularityReport:
    rows: list[tuple[int, int | None, float, float]]
    degenerate: bool
    truncated_k: int | None  # k range cap forced by generator smoothness


def k_regularity(
    params,
    phi: phimod.Phi,
    u: Code,
    v: Code,
    level: int,
    k_max: int,
    tol: float = 1e-10,
) -> KRegularityReport:
    """Regularity classification of f = Gamma_u - Gamma_v over b-adic intervals.

    f^(k) is the order k-1 derivative of the kernel difference.  A
    generator without enough classical smoothness truncates the k range
    (with a marker) rather than failing; a difference within 2 tol
    everywhere reports the degenerate flag.
    """
    _require_c1(phi, "k_regularity")
    truncated: int | None = None
    k_eff = k_max
    if isinstance(phi, phimod.PiecewisePhi):
        k_eff = 1
        if k_max > 1:
            truncated = 1

    def deriv_eval(k: int, xs: np.ndarray) -> np.ndarray:
        if k == 1:
            return _y_gap(params, phi, xs, u, v, tol)
        return (eval_y_deriv(params, phi, xs, u, k - 1, tol)
                - eval_y_deriv(params, phi, xs, v, k - 1, tol))

    rows = interval_regularity(params.b, level, k_eff, deriv_eval, tol)
    degenerate = all(sup <= _degenerate_floor(tol) for _, _, _, sup in rows)
    return KRegularityReport(rows=rows, degenerate=degenerate, truncated_k=truncated)


# ---------------------------------------------------------------------------
# transversality certificate


@dataclass
class TransversalityReport:
    """Certificate data for a family of code pairs at one partition level.

    For each pair, ``lhs`` is the mean over level-l0 intervals of the
    interval infimum of |Y_u - Y_v| (so a constant nonzero difference
    scores ratio one), ``rhs`` the global sup, and ``ratio`` their
    quotient in [0, 1], or 0 for a pair marked ``identical``: equal codes,
    or a sup within 2 tol.  ``rho0_hat`` is the worst ratio over the family.
    """

    l0: int
    per_pair: list[dict]
    rho0_hat: float
    median_ratio: float


def transversality_pairs(params, seed: int = 0, count: int = 20) -> list[tuple[Code, Code]]:
    """Deterministic family of code pairs with distinct first symbols."""
    b = params.b
    pairs = []
    i = 0
    while len(pairs) < count:
        a_sym = i % b
        b_sym = (a_sym + 1 + (i // b) % (b - 1)) % b
        u = Code(b=b, preperiod=(a_sym,), seed=(seed, i, 0))
        v = Code(b=b, preperiod=(b_sym,), seed=(seed, i, 1))
        pairs.append((u, v))
        i += 1
    return pairs


def transversality_certificate(
    params,
    phi: phimod.Phi,
    pairs: Iterable[tuple[Code, Code]],
    l0: int,
    tol: float = 1e-10,
) -> TransversalityReport:
    _require_c1(phi, "transversality_certificate")
    per_pair = []
    ratios = []
    cells = params.b**l0
    for u, v in pairs:
        infs, sups = _intervals_inf_sup(
            np.arange(cells), cells, lambda xs: _y_gap(params, phi, xs, u, v, tol),
            lambda t: eval_y(params, phi, t, u, tol) - eval_y(params, phi, t, v, tol))
        rhs = float(np.max(sups))
        lhs = float(np.mean(infs))
        identical = u == v or rhs <= _degenerate_floor(tol)
        ratio = 0.0 if identical else min(1.0, lhs / rhs)
        per_pair.append({"u": u, "v": v, "lhs": lhs, "rhs_sup": rhs, "ratio": ratio,
                         "identical": identical, "interval_inf": infs, "interval_sup": sups})
        ratios.append(ratio)
    ratios_arr = np.array(ratios)
    return TransversalityReport(
        l0=l0,
        per_pair=per_pair,
        rho0_hat=float(np.min(ratios_arr)),
        median_ratio=float(np.median(ratios_arr)),
    )


def transversality_stability(
    params,
    phi: phimod.Phi,
    pairs: list[tuple[Code, Code]],
    l0_max: int = 5,
    tol: float = 1e-10,
) -> tuple[int, dict[int, TransversalityReport]]:
    """Smallest level whose certificate ratio rho0_hat is stable to the next level.

    Returns (level, {level: certificate}); falls back to l0_max when no
    level stabilizes within 5% of its ratio.
    """
    history = {l0: transversality_certificate(params, phi, pairs, l0, tol)
               for l0 in range(1, l0_max + 1)}
    for l0 in range(1, l0_max):
        a, b_ = history[l0].rho0_hat, history[l0 + 1].rho0_hat
        if abs(a - b_) <= 0.05 * max(abs(a), 1e-300):
            return l0, history
    return l0_max, history


def certificate_to_csv(report: TransversalityReport) -> str:
    """The first pair's interval infima and suprema, one row per interval."""
    entry = report.per_pair[0]
    lines = ["interval_index,inf,sup"]
    for idx, (lo_v, hi_v) in enumerate(zip(entry["interval_inf"], entry["interval_sup"])):
        lines.append(f"{idx},{float(lo_v)!r},{float(hi_v)!r}")
    return "\n".join(lines) + "\n"
