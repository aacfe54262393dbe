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
Y takes phi' on the piece of the exact argument wherever the float argument
lies within rounding of a breakpoint.

On arrays, Gamma for a real Fourier generator factors into an x-only and a
code-only matrix.  With h_m = x / b^m and z = (c_k + conj c_-k) e^{2 pi i k o_m},
each increment is

    lam^-m [phi(o_m + h_m) - phi(o_m)]
        = sum_{k > 0} lam^-m (Re z (-2 sin^2(pi k h_m)) - Im z sin(2 pi k h_m)),

so Gamma(X, codes) = E(X) @ C(codes): E holds sin^2(pi k h_m) and
sin(2 pi k h_m) for the shallow depths, C the matching code factors
2 lam^-m Re z and lam^-m Im z, and one column of x times each code's linear-tail coefficient
covers the depths where h_m < 2^-24 (the increment is first order there).
``eval_gamma_many`` builds C once and E in row blocks; piecewise
generators, which do not factor, take one increment per depth over the
block's points and all codes at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import phi as phimod
from ._util import golden_refine, substream

__all__ = [
    "Word",
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


@dataclass(frozen=True)
class Word:
    """Finite word over {0, .., b-1}; symbols listed most significant first."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def reverse(self) -> "Word":
        return Word(self.symbols[::-1])


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
    reproducible random stream (the nu-typical case), read from ``offset``.
    ``symbol`` is O(1) either way.
    """

    b: int
    preperiod: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()
    seed: tuple[int, ...] | None = None
    offset: int = 0

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
        idx = self.offset + (n - k)
        return int(_seeded_symbols(self.b, self.seed, idx + 1)[idx])

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.symbol(i) for i in range(n))

    def shift(self) -> "Code":
        if self.preperiod:
            return replace(self, preperiod=self.preperiod[1:])
        if self.cycle:
            return replace(self, cycle=self.cycle[1:] + self.cycle[:1])
        return replace(self, offset=self.offset + 1)

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


def _phi_prime(params, phi: phimod.Phi, code: Code, x, m, args: np.ndarray):
    """phi' at ``args``, the floats of x / b^m + o_m (x and m broadcast to
    them).  For piecewise data an argument within rounding of a breakpoint
    takes phi' at the exact argument instead, with o_m from
    ``code_offsets_exact``, since o_m = 1 - 2^-60 rounds onto 1."""
    vals = phimod.eval_phi(phi, args, 1)
    near = (np.flatnonzero(phimod.near_breakpoint(phi, args))
            if isinstance(phi, phimod.PiecewisePhi) else [])
    if len(near) == 0:
        return vals
    vals = np.array(vals, dtype=np.float64)
    xs = np.broadcast_to(x, args.shape).ravel()
    ms = np.broadcast_to(m, args.shape).ravel()
    offs = code_offsets_exact(code, int(ms[near].max()))
    for i in near:
        point = Fraction(float(xs[i])) / params.b ** int(ms[i]) + offs[ms[i] - 1]
        vals.flat[i] = phimod.piecewise_deriv_exact(phi, point)
    return vals


def eval_y(params, phi: phimod.Phi, x: float, code: Code, tol: float = 1e-10) -> float:
    """Kernel value Y(x, code) to within tol.

    The truncation count N satisfies gamma^(N+1) sup|phi'| / (1 - gamma)
    <= tol in closed form.  Piecewise generators use their right-limit
    derivative at breakpoints, on the piece of the exact argument; a
    discontinuous wave is rejected.
    """
    _require_c1(phi, "eval_y")
    n = _y_term_count(params, phi, tol)
    if n == 0:
        return 0.0
    offs = code_offsets(code, n)
    depths = np.arange(1, n + 1)
    args = x * float(params.b) ** -depths + offs
    vals = _phi_prime(params, phi, code, x, depths, args)
    gam = params.gamma ** depths
    return -math.fsum((gam * vals).tolist())


def eval_y_vec(
    params, phi: phimod.Phi, xs: np.ndarray, code: Code, tol: float = 1e-10
) -> np.ndarray:
    _require_c1(phi, "eval_y_vec")
    n = _y_term_count(params, phi, tol)
    xs = np.asarray(xs, dtype=np.float64)
    acc = np.zeros_like(xs)
    if n == 0:
        return acc
    offs = code_offsets(code, n)
    gam = params.gamma
    g = gam
    inv_b = 1.0
    for m in range(1, n + 1):
        inv_b /= params.b
        args = xs * inv_b + offs[m - 1]
        acc -= g * _phi_prime(params, phi, code, xs, m, args)
        g *= gam
    return acc


def eval_y_deriv(
    params, phi: phimod.Phi, x: float, code: Code, k: int, tol: float = 1e-8
) -> float:
    """k-th derivative of Y(., code) at x, k >= 1; needs a C^(k+1) generator."""
    if k < 1:
        raise ValueError("k must be at least 1; use eval_y for the kernel itself")
    if isinstance(phi, phimod.PiecewisePhi):
        raise ValueError(
            f"eval_y_deriv needs {k + 1} classical derivatives; "
            f"a piecewise generator of smoothness {phi.smoothness} has too few"
        )
    from .weier import term_count

    ratio = params.gamma / float(params.b) ** k
    supk = phimod.sup_deriv(phi, k + 1)
    n = term_count(ratio, supk, tol) if ratio < 1.0 else term_count(params.gamma, supk, tol)
    if n == 0:
        return 0.0
    offs = code_offsets(code, n)
    scales = float(params.b) ** -np.arange(1, n + 1)
    args = x * scales + offs
    vals = phimod.eval_phi(phi, args, k + 1)
    weights = params.gamma ** np.arange(1, n + 1) * scales**k
    return -math.fsum((weights * vals).tolist())


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


def _gamma_blocks(params, phi: phimod.Phi, xs: np.ndarray, codes: Sequence[Code],
                  tol: float):
    """Yield (slice, Gamma on xs[slice] for every code) over row blocks of the
    flat array ``xs``; each block is a (rows, len(codes)) matrix of at most
    about 4 MB, as is each block of the sine matrix E behind it.
    """
    _require_c1(phi, "eval_gamma_many")
    codes = list(codes)
    n = _y_term_count(params, phi, tol)
    n0 = 0
    width = 1.0
    while n0 < n and width > _LINEARIZE_BELOW:
        n0 += 1
        width /= params.b
    offs = np.array([code_offsets(c, n) for c in codes]).reshape(len(codes), n)
    powers = float(params.b) ** np.arange(1, n0 + 1)
    scales = np.cumprod(np.full(n0, 1.0 / params.lam))  # lam^-m
    linear = n0 < n
    if linear:  # sum over the deeper m of gamma^m phi'(o_m), per code
        if isinstance(phi, phimod.PiecewisePhi):  # deep float offsets can round onto a breakpoint
            d1 = np.array([[phimod.piecewise_deriv_exact(phi, o)
                            for o in code_offsets_exact(c, n)[n0:]] for c in codes])
        else:
            d1 = phimod.eval_phi(phi, offs[:, n0:], 1)
        tail = d1.reshape(len(codes), n - n0) @ params.gamma ** np.arange(n0 + 1, n + 1)
    separable = isinstance(phi, phimod.FourierPhi) and phi.real_valued
    freqs = sorted({abs(k) for k in phi.coeffs if k}) if separable else []
    parts = []
    for k in freqs:
        ck = phi.coeffs.get(k, 0j) + phi.coeffs.get(-k, 0j).conjugate()
        z = scales * ck * np.exp(2j * math.pi * k * offs[:, :n0])
        parts += [2.0 * z.real, z.imag]
    if linear:
        parts.append(-tail[:, None])
    cmat = np.concatenate(parts, axis=1).T if parts else np.zeros((0, len(codes)))
    width_cols = max(len(cmat) if separable else 0, len(codes), 1)
    rows = 1 << max(0, (_BLOCK_BYTES // (8 * width_cols)).bit_length() - 1)
    # E is held transposed, one contiguous row per column, and reused by every block
    e_buf = np.empty((len(cmat), min(rows, len(xs)))) if separable else None
    for a in range(0, len(xs), rows):
        sl = slice(a, a + rows)
        x = xs[sl]
        if separable:
            e = e_buf[:, :len(x)]
            for i, k in enumerate(freqs):
                ang = e[2 * i * n0:(2 * i + 1) * n0]
                np.multiply((math.pi * k / powers)[:, None], x, out=ang)  # pi k h_m
                dbl = e[(2 * i + 1) * n0:(2 * i + 2) * n0]
                np.multiply(ang, 2.0, out=dbl)
                np.sin(dbl, out=dbl)
                np.sin(ang, out=ang)
                ang *= ang
            if linear:
                e[-1] = x
            yield sl, e.T @ cmat
            continue
        out = np.zeros((len(x), len(codes)))
        for m in range(n0):
            out -= scales[m] * phimod.phi_diff_vec(phi, offs[:, m], (x / powers[m])[:, None])
        if linear:
            out -= x[:, None] * tail
        yield sl, out


def eval_gamma_many(params, phi: phimod.Phi, xs: np.ndarray, codes: Sequence[Code],
                    tol: float = 1e-10) -> np.ndarray:
    """Gamma(x, code) for every point and every code, shape xs.shape + (len(codes),).

    For a real Fourier generator this is the product E(xs) @ C(codes) of
    the module docstring, with C built once per call and E one row block at
    a time; other generators run the stable-increment loop per code on the
    same blocks.  For points in [0, 1), depths m <= n0, the first with
    b^-n0 <= 2^-24, sum stable increments; below that the increment is first
    order in x and the deeper depths collapse into x times one linear
    coefficient per code, sum_{m > n0} gamma^m phi'(o_m).  The linearization
    error is bounded by 2^-24 sup|phi''| gamma^n0 / (2 (1 - gamma)) for
    smooth generators; identity-grade comparisons should use the scalar
    ``eval_gamma``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    codes = list(codes)
    out = np.empty((xs.size, len(codes)))
    for sl, vals in _gamma_blocks(params, phi, xs.ravel(), codes, tol):
        out[sl] = vals
    return out.reshape(xs.shape + (len(codes),))


def eval_gamma_vec(params, phi: phimod.Phi, xs: np.ndarray, code: Code,
                   tol: float = 1e-10) -> np.ndarray:
    """Gamma(x, code) over an array of points: the one-code column of
    ``eval_gamma_many``, with its linearization bound."""
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


def apply_word(params, phi: phimod.Phi, word: Word | Sequence[int], x, y):
    """Compose the maps named by the word, rightmost symbol acting first.

    The word lists the base-b digits of the image interval most significant
    first, so the x image of (x, y) under the word u is
    (x + u_n + u_{n-1} b + ... ) / b^n and the empty word is the identity.
    Points are floats or arrays, as in ``apply_ifs``: this is the one word
    push, for single points and for whole samples alike.
    """
    syms = word.symbols if isinstance(word, Word) else tuple(int(s) for s in word)
    for s in reversed(syms):
        x, y = apply_ifs(params, phi, s, x, y)
    return x, y


def transition_residual(
    params,
    phi: phimod.Phi,
    word: Word | Sequence[int],
    code: Code,
    x: float,
    y: float,
    tol: float = 1e-12,
) -> float:
    """Defect of the transition identity at one point; at most 4 tol.

    pi_code(g_u(x, y)) should equal
    lam^|u| pi_{reverse(u) code}(x, y) + pi_code(g_u(0, 0)).
    """
    syms = word.symbols if isinstance(word, Word) else tuple(int(s) for s in word)
    gx, gy = apply_word(params, phi, syms, x, y)
    lhs = project(params, phi, gx, gy, code, tol)
    zx, zy = apply_word(params, phi, syms, 0.0, 0.0)
    anchor = project(params, phi, zx, zy, code, tol)
    shifted = code.prepend(tuple(reversed(syms)))
    rhs = params.lam ** len(syms) * project(params, phi, x, y, shifted, tol) + anchor
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# separation scans


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
    diff = np.abs(
        eval_y_vec(params, phi, xs, u, tol) - eval_y_vec(params, phi, xs, v, tol)
    )
    i = int(np.argmax(diff))
    best_x, best = float(xs[i]), float(diff[i])
    if refine:
        lo = max(0.0, best_x - 1.0 / grid_size)
        hi = min(1.0, best_x + 1.0 / grid_size)

        def f(t: float) -> float:
            return abs(
                eval_y(params, phi, t, u, tol) - eval_y(params, phi, t, v, tol)
            )

        xr, vr = golden_refine(f, lo, hi)
        if vr > best:
            best_x, best = xr, vr
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
    eps_h: float = 1e-6,
    eps_star: float = 1e-8,
) -> HScanReport:
    """Separation statistics over prefix pairs with distinct first symbols.

    Every unordered pair of depth-``depth`` prefixes whose first symbols
    differ is paired with ``samples_per_pair`` independent seeded tails.
    Evidence labels: separation floor above eps_h suggests distinct
    directions everywhere (the generic regime); a ceiling below eps_star
    suggests all directions coincide (the smooth regime); anything else is
    inconclusive.  Labels are evidence, not proof.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
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


def _interval_inf_sup(
    lo: float,
    width: float,
    vec_at: Callable[[np.ndarray], np.ndarray],
    point_at: Callable[[float], float],
) -> tuple[float, float]:
    """inf and sup of |f| on [lo, lo + width].

    ``vec_at`` evaluates f on the 129 Chebyshev nodes of the interval and
    ``point_at`` at one point; a golden refinement in a bracket of width/64
    around each grid extremum can only lower the inf and raise the sup.
    """
    xs = lo + width * _CHEB_NODES
    vals = np.abs(vec_at(xs))
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))

    def bracket(i: int) -> tuple[float, float]:
        return max(lo, xs[i] - width / 64), min(lo + width, xs[i] + width / 64)

    _, neg_inf = golden_refine(lambda t: -abs(point_at(t)), *bracket(i_min))
    _, sup = golden_refine(lambda t: abs(point_at(t)), *bracket(i_max))
    return min(-neg_inf, float(vals[i_min])), max(sup, float(vals[i_max]))


def interval_regularity(
    b: int,
    level: int,
    k_max: int,
    deriv_eval: Callable[[int, np.ndarray], np.ndarray],
    degenerate_tol: float = 1e-13,
) -> list[tuple[int, int | None, float, float]]:
    """Per level-``level`` interval, the least order k <= k_max whose |f^(k)|
    has sup at most twice its inf, with that sup and inf.

    ``deriv_eval(k, xs)`` must return f^(k) on the points.  Chebyshev nodes
    (129 per interval) plus one golden refinement of each extremum keep the
    procedure deterministic and reproducible bit for bit.
    """
    cells = b**level
    out: list[tuple[int, int | None, float, float]] = []
    for idx in range(cells):
        row: tuple[int, int | None, float, float] = (idx, None, 0.0, 0.0)
        for k in range(1, k_max + 1):
            inf, sup = _interval_inf_sup(
                idx / cells, 1.0 / cells, lambda xs: deriv_eval(k, xs),
                lambda t: float(deriv_eval(k, np.array([t]))[0]),
            )
            if sup <= 2.0 * inf and sup > degenerate_tol:
                row = (idx, k, inf, sup)
                break
            row = (idx, None, inf, sup)
        out.append(row)
    return out


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
    (with a marker) rather than failing; an identically zero difference
    reports the degenerate flag.
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
            return eval_y_vec(params, phi, xs, u, tol) - eval_y_vec(params, phi, xs, v, tol)
        return np.array(
            [
                eval_y_deriv(params, phi, float(t), u, k - 1, tol)
                - eval_y_deriv(params, phi, float(t), v, k - 1, tol)
                for t in np.atleast_1d(xs)
            ]
        )

    rows = interval_regularity(params.b, level, k_eff, deriv_eval)
    degenerate = all(sup <= 1e-13 for _, _, _, sup in rows)
    return KRegularityReport(rows=rows, degenerate=degenerate, truncated_k=truncated)


# ---------------------------------------------------------------------------
# transversality certificate


@dataclass
class TransversalityReport:
    """Certificate data for a family of code pairs at one partition level.

    For each pair, ``lhs`` is the mean over level-l0 intervals of the
    interval infimum of |Y_u - Y_v| (so a constant nonzero difference
    scores ratio one), ``rhs`` the global sup, and ``ratio`` their
    quotient in [0, 1].  ``rho0_hat`` is the worst ratio over the family.
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
    for u, v in pairs:
        cells = params.b**l0
        infs = np.empty(cells)
        sups = np.empty(cells)
        for idx in range(cells):
            infs[idx], sups[idx] = _interval_inf_sup(
                idx / cells, 1.0 / cells,
                lambda xs: (eval_y_vec(params, phi, xs, u, tol)
                            - eval_y_vec(params, phi, xs, v, tol)),
                lambda t: eval_y(params, phi, t, u, tol) - eval_y(params, phi, t, v, tol),
            )
        rhs = float(np.max(sups))
        lhs = float(np.mean(infs))
        identical = u == v or rhs <= 1e-13
        ratio = 0.0 if identical else min(1.0, lhs / rhs)
        per_pair.append(
            {
                "u": u,
                "v": v,
                "lhs": lhs,
                "rhs_sup": rhs,
                "ratio": ratio,
                "identical": identical,
                "interval_inf": infs,
                "interval_sup": sups,
            }
        )
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
    rel_tol: float = 0.05,
    tol: float = 1e-10,
) -> tuple[int, dict[int, float]]:
    """Smallest level whose certificate ratio is stable to the next level.

    Returns (level, {level: rho0_hat}); falls back to l0_max when no level
    stabilizes within rel_tol.
    """
    history: dict[int, float] = {}
    for l0 in range(1, l0_max + 1):
        history[l0] = transversality_certificate(params, phi, pairs, l0, tol).rho0_hat
    for l0 in range(1, l0_max):
        a, b_ = history[l0], history[l0 + 1]
        if abs(a - b_) <= rel_tol * max(abs(a), 1e-300):
            return l0, history
    return l0_max, history


def certificate_to_csv(report: TransversalityReport, pair_index: int = 0) -> str:
    entry = report.per_pair[pair_index]
    lines = ["interval_index,inf,sup"]
    for idx, (lo_v, hi_v) in enumerate(zip(entry["interval_inf"], entry["interval_sup"])):
        lines.append(f"{idx},{float(lo_v)!r},{float(hi_v)!r}")
    return "\n".join(lines) + "\n"
