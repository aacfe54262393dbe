"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against a different mechanism
than the package: high-precision mpmath partial sums instead of float
recursion, adaptive quadrature instead of stable-increment telescoping,
an FFT of a dense sample instead of the coefficient recursion, a
dictionary-based convolution instead of the dense lattice path,
piecewise increments at float offsets instead of exact integer knots, a
per-word sweep of Gamma's shallow depths instead of the residue table,
``np.unique`` and ``np.lexsort`` cell labels instead of one sort per
theta, scalar partition cells of single contact maps instead of labels
for a whole theta, a per-atom row loop for the cell dump, a contact map
built from one word pushed through the graph maps instead of from a
word index, a ``collections.Counter`` of (column, row) pairs instead
of packed-key sorts for the graph measure's squares, a scalar golden
section search instead of equally spaced points in one call, and a
pair-by-pair floor search for the separation constant instead of the
cell labels of whole theta measures.
"""

from __future__ import annotations

import math
from collections import Counter
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


def mp_gamma_fourier(params, phi, x: float, offsets_exact: list[Fraction]) -> float:
    """Gamma(x) = -sum_m lam^-m [phi(o_m + x / b^m) - phi(o_m)] over the
    given exact offsets for a Fourier generator, each phi a sum of
    Re(c_k e^{2 pi i k t}) carried to 30 digits past the b^-m of the
    deepest increment, so the difference loses none of them."""
    b = params.b
    with mpmath.workdps(30 + int(len(offsets_exact) * math.log10(b))):
        def value(t):
            return sum(mpmath.mpf(c.real) * mpmath.cos(2 * mpmath.pi * k * t)
                       - mpmath.mpf(c.imag) * mpmath.sin(2 * mpmath.pi * k * t)
                       for k, c in phi.coeffs.items())
        lam_inv, x_mp = 1 / mpmath.mpf(float(params.lam)), mpmath.mpf(float(x))
        total = mpmath.mpf(0)
        for m, o in enumerate(offsets_exact, start=1):
            o_mp = mpmath.mpf(o.numerator) / mpmath.mpf(o.denominator)
            total -= lam_inv**m * (value(o_mp + x_mp / mpmath.mpf(b) ** m) - value(o_mp))
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


def golden_max(f, lo: float, hi: float) -> float:
    """Max of a scalar f on [lo, hi] by golden section search: 60 steps of
    one probe each, keeping the left part where the probes tie."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b_ = lo, hi
    c, d = b_ - g * (b_ - a), a + g * (b_ - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc >= fd:
            b_, d, fd = d, c, fc
            c = b_ - g * (b_ - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b_ - a)
            fd = f(d)
    return max(fc, fd)


def central_difference(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def shannon_entropy_counts(counts, log_base: float) -> float:
    """Entropy of a count vector, the direct formula."""
    c = np.asarray(counts, dtype=float)
    c = c[c > 0]
    p = c / c.sum()
    return float(-(p * np.log(p)).sum() / np.log(log_base))


def gamma_words_per_depth(params, phi, x, idx, width, base, tol: float = 1e-9) -> np.ndarray:
    """``funcspace.gamma_at_many_words`` for a Fourier generator with every
    shallow depth m <= width taken per word: the offset r mod b^m of each
    word index r, pushed through the stable increment one depth at a time.
    The deep depths come from the library's ``_deep_word_depths``."""
    from weierlab.funcspace import _deep_word_depths
    from weierlab.kernel import _y_term_count, code_offsets
    from weierlab.phi import phi_diff_vec

    idx = np.asarray(idx, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    xv = x.reshape(-1, 1)
    n_terms = _y_term_count(params, phi, tol)
    out = np.zeros((len(xv), len(idx)))
    lam_inv = 1.0 / params.lam
    scale = 1.0
    bm = 1
    for _ in range(min(width, n_terms)):
        bm *= params.b
        scale *= lam_inv
        o = (idx % bm).astype(np.float64) / bm
        out -= scale * phi_diff_vec(phi, o, xv / bm)
    if n_terms > width:
        base_offs = code_offsets(base, n_terms - width)
        rev_val = idx.astype(np.float64) / float(params.b) ** width
        out += _deep_word_depths(params, phi, xv[:, 0], rev_val, width, base_offs)
    return out.T.reshape(idx.shape + x.shape)


def theta_labels_unique_lexsort(theta, i_level: int, m_grid: int, tol: float = 1e-9):
    """Partition-cell labels of theta's atoms and the cell count, by
    ``np.unique`` of the constant-coordinate floors and one ``np.lexsort``
    of (floor, psi floors) over the atoms that share a floor.  Singleton
    floors come first, in key order, then the shared ones' cells in
    lexicographic order of their keys."""
    from weierlab.funcspace import gamma_at_many_words, q_height

    params = theta.params
    q = q_height(params, theta.n_hat)
    cscale = float(params.b) ** (i_level + q)
    key_c = np.floor(theta.c * cscale).astype(np.int64)
    uniq, inverse, counts = np.unique(key_c, return_inverse=True, return_counts=True)
    if i_level == 0:
        return inverse, len(uniq)
    collided = counts[inverse] > 1
    n_coll = int(collided.sum())
    if n_coll == 0:
        return inverse, len(uniq)
    pscale = float(params.b) ** i_level
    grid = np.arange(1, m_grid + 1) / m_grid
    psi = gamma_at_many_words(params, theta.phi, grid, theta.indices[collided], theta.n_hat,
                              theta.code, tol)
    cols = [key_c[collided], *np.floor(psi * pscale).astype(np.int64).T]
    order = np.lexsort(cols[::-1])
    stacked = np.stack([c[order] for c in cols], axis=1)
    new_group = np.empty(n_coll, dtype=bool)
    new_group[0] = True
    new_group[1:] = np.any(stacked[1:] != stacked[:-1], axis=1)
    labels = np.empty(len(theta.c), dtype=np.int64)
    labels[~collided] = inverse[~collided]
    coll_labels = np.empty(n_coll, dtype=np.int64)
    coll_labels[order] = len(uniq) + np.cumsum(new_group) - 1
    labels[collided] = coll_labels
    used = np.zeros(len(uniq) + n_coll, dtype=bool)
    used[labels] = True
    rank = np.cumsum(used) - 1
    return rank[labels], int(rank[-1]) + 1


def separation_pairwise(params, phi, code, n_max: int, m_grid: int, tol: float = 1e-10):
    """``funcspace.separation_constant_c`` pair by pair: every pair of
    same-length words is compared at levels 1, 2, ..., 8 n, by the floors
    of c at level + q(n) and of psi(k / M) at the level, until they differ.
    The pair needs C = ceil(level / n), C_n is the worst pair's, and pairs
    alike at every level are failures, the first 32 in (a, b) order.
    Returns (C or None, separable, per_n, failures)."""
    from weierlab.funcspace import _origin_constants, gamma_at_many_words, q_height

    per_n, failures = {}, []
    for n in range(1, n_max + 1):
        count = params.b**n
        cvals = _origin_constants(params, phi, code, n, None, tol)
        psi = gamma_at_many_words(params, phi, np.arange(1, m_grid + 1) / m_grid,
                                  np.arange(count, dtype=np.int64), n, code, tol).T
        q = q_height(params, n)
        ia, ib = np.triu_indices(count, k=1)
        alive = np.ones(len(ia), dtype=bool)
        level_found = np.zeros(len(ia), dtype=np.int64)
        for ell in range(1, 8 * n + 1):
            if not alive.any():
                break
            fc = np.floor(cvals * float(params.b) ** (ell + q)).astype(np.int64)
            sep = fc[ia] != fc[ib]
            for g in psi:
                fp = np.floor(g * float(params.b) ** ell).astype(np.int64)
                sep |= fp[ia] != fp[ib]
            level_found[alive & sep] = ell
            alive &= ~sep
        if alive.any():
            failures += [(n, int(ia[j]), int(ib[j])) for j in np.flatnonzero(alive)[:32]]
        else:
            per_n[n] = int(np.max(-(-level_found // n)))
    separable = not failures
    return (max(per_n.values(), default=1) if separable else None), separable, per_n, failures


def theta_cells_rows(theta, labels) -> str:
    """The ``theta_cells.csv`` that ``weierlab theta --dump-cells`` writes
    through the CLI's one CSV writer, built row by row from
    ``ThetaMeasure.word``."""
    lines = ["word,t,cell_id"]
    for i, label in enumerate(np.asarray(labels).tolist()):
        lines.append(f"{''.join(map(str, theta.word(i)))},{theta.n_hat},{label}")
    return "\n".join(lines) + "\n"


def pibar(cm, m_grid: int, tol: float = 1e-10) -> np.ndarray:
    """Coordinate vector (t, psi(1/M), ..., psi(1), c) of one contact map,
    psi = Gamma_code by the scalar ``eval_gamma`` at each grid point.

    psi(0) = 0 is identically zero and is not a coordinate.  M must be a
    power of b so the grid aligns with every b-adic partition level.
    """
    from weierlab.funcspace import _check_m
    from weierlab.kernel import eval_gamma

    _check_m(cm.params, m_grid)
    psi = [eval_gamma(cm.params, cm.phi, k / m_grid, cm.code, tol)
           for k in range(1, m_grid + 1)]
    return np.array([float(cm.t), *psi, cm.c], dtype=np.float64)


def partition_cell(cm, i_level: int, m_grid: int, tol: float = 1e-10) -> tuple[int, ...]:
    """Cell of one contact map in the level-``i_level`` partition of map
    space, from its own coordinate vector: level i >= 1 takes the b-adic
    floor of each psi value at level i and of c at level i + q(t); level 0
    keeps only (t, floor of c at q(t))."""
    from weierlab.funcspace import _check_m, q_height

    params = cm.params
    _check_m(params, m_grid)
    q = q_height(params, cm.t)
    if i_level == 0:
        return (cm.t, math.floor(cm.c * float(params.b) ** q))
    scale = float(params.b) ** i_level
    psi = pibar(cm, m_grid, tol)[1:-1]
    return (cm.t, *(math.floor(v * scale) for v in psi),
            math.floor(cm.c * float(params.b) ** (i_level + q)))


def contact_map_from_word(params, phi, word, base_code, tol: float = 1e-10):
    """The contact map of one word over ``base_code``: t is the word length,
    the code is the reversed word prepended to the base code, and c is the
    base projection of the word's image of the origin."""
    from weierlab.funcspace import ContactMap
    from weierlab.kernel import apply_word, eval_gamma

    syms = tuple(int(s) for s in word)
    x0, y0 = apply_word(params, phi, syms, 0.0, 0.0)
    return ContactMap(params=params, phi=phi, t=len(syms),
                      code=base_code.prepend(tuple(reversed(syms))),
                      c=float(y0 - eval_gamma(params, phi, x0, base_code, tol)))


def square_counts(xs, ys, b: int, level: int) -> list[int]:
    """Counts of the points in the squares (floor(x b^level), floor(y b^level)),
    listed in sorted order of the squares."""
    scale = float(b) ** level
    counts = Counter((math.floor(x * scale), math.floor(y * scale))
                     for x, y in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist()))
    return [counts[sq] for sq in sorted(counts)]
