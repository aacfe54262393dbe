"""The limit function W(x) = sum_n lam^n phi(b^n x) and its frequency-side analysis.

Everything here works at a declared tolerance with closed-form truncation
counts, never adaptive stopping: the term count N is the smallest integer
with lam^(N+1) sup|phi| / (1 - lam) <= tol, computed before any evaluation.
No path iterates t -> frac(b t) in float64, whose rounding error grows like
b^n for b != 2.  Scalar evaluation reduces b^n x mod 1 with exact integer
arithmetic on the dyadic value of x; the vectorized path holds x >= 2^-11
as the integer x 2^64 in a uint64, where multiplying by b wraps modulo 2^64
and so keeps frac(b^n x) exact for every base.  On a shifted b-adic lattice
``WLattice`` needs no orbit at all: the self-affinity W(x) = phi(x) +
lam W(b x mod 1) maps each lattice point to one of the next coarser lattice,
and for a Fourier generator angle addition turns the levels from a coarser
lattice to a finer one into one matrix product.  For a Fourier generator
``dichotomy`` decides exactly whether W is analytic or rough.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import phi as phimod
from ._util import badic_offsets_exact, substream

__all__ = [
    "SystemParams",
    "check_base",
    "make_params",
    "term_count",
    "eval_w",
    "eval_w_vec",
    "WLattice",
    "self_affinity_residual",
    "fourier_of_w",
    "Dichotomy",
    "dichotomy",
    "analytic_lambdas",
]


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter pack (b, lam) with the derived constants.

    gamma = 1/(b lam) is the contraction of the stable direction, dim is
    the similarity dimension 2 + log_b(lam) of the graph, and holder_exp
    its complement 2 - dim.  Valid parameters always satisfy
    1/b < lam < 1, 1/b < gamma < 1, 1 < dim < 2, and gamma * b * lam = 1
    to within one ulp.
    """

    b: int
    lam: float
    gamma: float
    dim: float
    holder_exp: float

    def __post_init__(self) -> None:
        if abs(self.gamma * self.b * self.lam - 1.0) > math.ulp(1.0):
            raise AssertionError("gamma * b * lam deviates from 1 beyond rounding")


def check_base(b: int) -> int:
    """The base b as an int, refused unless it is an integer >= 2."""
    if not isinstance(b, (int, np.integer)) or b < 2:
        raise ValueError(f"b must be an integer >= 2, got {b!r}")
    return int(b)


def make_params(b: int, lam: float) -> SystemParams:
    """Build SystemParams, rejecting out-of-range input with a named constraint.

    >>> make_params(2, 0.7).dim
    1.4854268271702415
    """
    b = check_base(b)
    lam = float(lam)
    if not lam < 1.0:
        raise ValueError(f"lam must satisfy lam < 1, got {lam!r}")
    if not lam > 1.0 / b:
        raise ValueError(f"lam must satisfy lam > 1/b = {1.0 / b!r}, got {lam!r}")
    gamma = 1.0 / (b * lam)
    dim = 2.0 + math.log(lam) / math.log(b)
    return SystemParams(b=b, lam=lam, gamma=gamma, dim=dim, holder_exp=2.0 - dim)


def term_count(lam: float, sup: float, tol: float) -> int:
    """Smallest N >= 0 with lam^(N+1) * sup / (1 - lam) <= tol, closed form.

    A bound sup / (1 - lam) past float range raises ValueError: a series
    so large has no float value to truncate.
    """
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise ValueError("tol must be a finite positive number")
    if not sup / (1.0 - lam) < math.inf:
        raise ValueError(f"the series bound sup / (1 - lam) = {sup!r} / (1 - {lam!r}) "
                         "overflows float range")
    if sup <= 0.0:
        return 0
    target = tol * (1.0 - lam) / sup
    if target >= lam:
        n = 0
    else:
        n = max(0, math.ceil(math.log(target) / math.log(lam)) - 1)
    while lam ** (n + 1) * sup / (1.0 - lam) > tol:
        n += 1
    while n > 0 and lam**n * sup / (1.0 - lam) <= tol:
        n -= 1
    return n


def eval_w(params: SystemParams, phi: phimod.Phi, x: float, tol: float = 1e-12) -> float:
    """W(x) to within tol, exact b-adic offsets, compensated summation."""
    sup = phimod.sup_deriv(phi, 0)
    n = term_count(params.lam, sup, tol)
    offs = badic_offsets_exact(float(x), params.b, n + 1)
    vals = phimod.eval_phi(phi, offs)
    lam_pows = params.lam ** np.arange(n + 1)
    return math.fsum((lam_pows * vals).tolist())


_EXACT_FROM = 2.0**-11  # from here up, x * 2^64 is an integer that a uint64 holds exactly


def eval_w_vec(
    params: SystemParams, phi: phimod.Phi, xs: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Vectorized W over an array of points, with exact phases for every base.

    A point t >= 2^-11 of [0, 1) is k / 2^64 for the integer k = t 2^64, and
    frac(b^n t) = (k b^n mod 2^64) / 2^64, which the wrapping uint64 product
    keeps exactly.  Nonzero points below 2^-11 go through the scalar ``eval_w``.
    """
    sup = phimod.sup_deriv(phi, 0)
    n = term_count(params.lam, sup, tol)
    x = np.asarray(xs, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("W needs finite points")
    t = np.mod(x, 1.0).ravel()
    t[t >= 1.0] = 0.0  # a tiny negative x wraps to 1.0 in float
    small = t < _EXACT_FROM
    k = (np.where(small, 0.0, t) * 2.0**64).astype(np.uint64)
    b = np.uint64(params.b)
    acc = np.zeros_like(t)
    lam_pow = 1.0
    for _ in range(n + 1):
        acc += lam_pow * phimod.eval_phi(phi, k * 2.0**-64)
        lam_pow *= params.lam
        k *= b
    for i in np.flatnonzero(small & (t > 0.0)):
        acc[i] = eval_w(params, phi, float(t[i]), tol)
    return acc.reshape(x.shape)


_LATTICE_TABLE = 1 << 22  # entries of the largest table a WLattice keeps resident
_LATTICE_BLOCK = 1 << 16  # points or beta entries per pass, bounding the temporaries


class WLattice:
    """W at the points x_s = (s + shift) / b^level of one shifted b-adic lattice.

    b x_s mod 1 is the point s mod b^(level-1) of the next coarser lattice
    with the same shift, so W(x) = phi(x) + lam W(b x mod 1) reads

        W_l[s] = phi((s + shift) / b^l) + lam W_(l-1)[s mod b^(l-1)],   W_0 = W(shift).

    ``start`` replaces W(shift) as W_0: 0 gives the finite sum of the first
    ``level`` terms.  W is 1-periodic, so every integer s is a valid index.
    The table W_R at the largest R <= level with b^R <= ``_LATTICE_TABLE``
    stays resident.

    For a Fourier generator W_l past any level h is one product.  Split s =
    a b^h + c with 0 <= c < b^h; the phase at level j = h + i is then
    (a mod b^i) / b^i + (c + shift) / b^j, and each real-form term A_k
    cos(2 pi k x + theta_k) of phi is, by angle addition with alpha = 2 pi
    k (a mod b^i) / b^i and beta = 2 pi k (c + shift) / b^j + theta_k,

        A_k cos beta - vers(alpha) A_k cos beta - sin(alpha) A_k sin beta.

    Summed with weights lam^(l-j) over j = h+1 .. l, the first part and c_0
    join lam^(l-h) W_h[c] in one row over c, and the rest is the product of
    a b^(l-h) by 2 (l-h) K matrix of vers and sin of alpha (K real-form
    terms, from direct sines of the exact reduced phases, so no angle past
    2 pi k is climbed) with a 2 (l-h) K by #c matrix of the weighted cos
    and sin of beta (``_product``).  The table is this product at h = R //
    2 over the recursion's W_h, and ``block`` takes it at h = R over the
    table for all a and a range of c.  Piecewise generators, whose values
    stay bit for bit those of the recursion, and ``__call__`` at arbitrary
    indices past the table run the recursion on the exact integer phases
    ((s mod b^j) + shift) / b^j.  Both ways add only rounding: the product
    agrees with the recursion to 1e-14 max(1, |W|) for b in 2..10 (about
    6e-15 at worst for lam up to 0.95), so values depend on R only to
    that bound.  The error against W is rounding plus lam^level times the
    error of W(shift) at ``tol``.
    """

    def __init__(self, params: SystemParams, phi: phimod.Phi, level: int,
                 shift: float = 0.0, tol: float = 1e-12, start: float | None = None):
        if level < 0 or params.b**level >= 2**63:
            raise ValueError(f"level must satisfy 0 <= b^level < 2^63, got {level}")
        if not 0.0 <= shift < 1.0:
            raise ValueError(f"shift must lie in [0, 1), got {shift!r}")
        self.params, self.phi, self.level, self.shift = params, phi, level, float(shift)
        term_count(params.lam, phimod.sup_deriv(phi, 0), tol)  # refuses a sum past float range
        self.table_level = 0
        while self.table_level < level and params.b ** (self.table_level + 1) <= _LATTICE_TABLE:
            self.table_level += 1
        fourier = isinstance(phi, phimod.FourierPhi)
        h = self.table_level // 2 if fourier else self.table_level
        table = np.array([eval_w(params, phi, shift, tol) if start is None else float(start)])
        for j in range(1, h + 1):
            below = table
            table = np.empty(below.size * params.b)
            table.reshape(params.b, below.size)[:] = below  # entry s holds W_(j-1)[s mod b^(j-1)]
            self._add_levels(table, np.arange(table.size), [j])
        if h < self.table_level:
            table = self._product(h, self.table_level, 0, table).reshape(-1)
        self.table = table

    def _add_levels(self, acc: np.ndarray, s: np.ndarray, levels) -> None:
        """acc <- phi(((s mod b^j) + shift) / b^j) + lam acc for each j in turn, in place."""
        b, lam = self.params.b, self.params.lam
        for a in range(0, acc.size, _LATTICE_BLOCK):
            blk, sb = acc[a : a + _LATTICE_BLOCK], s[a : a + _LATTICE_BLOCK]
            for j in levels:
                blk *= lam
                blk += phimod.eval_phi(self.phi, (sb % b**j + self.shift) / b**j)

    def _product(self, h: int, level: int, lo: int, base: np.ndarray) -> np.ndarray:
        """W_level at s = a b^h + c, rows a = 0 .. b^(level-h) - 1 and columns
        c = lo .. lo + len(base) - 1, from base = W_h at those c: the product
        of the class docstring, its beta side built about _LATTICE_BLOCK
        entries at a time.  Axes (level j = h + i, term, vers or sin, point)."""
        b, lam, m = self.params.b, self.params.lam, level - h
        k, amp, theta = np.array(self.phi._terms).reshape(-1, 3).T[:, :, None, None]
        i = np.arange(1, m + 1)[:, None, None, None]
        weight = lam ** (m - i)
        ang = (2.0 * math.pi * k) * ((np.arange(b**m) % b**i) / b**i)
        alpha = np.concatenate([2.0 * np.sin(0.5 * ang) ** 2, np.sin(ang)], axis=2)
        alpha = alpha.reshape(-1, b**m).T
        out = np.empty((b**m, len(base)))
        step = max(1, _LATTICE_BLOCK // max(1, len(alpha.T)))
        for c0 in range(0, len(base), step):
            c = np.arange(lo + c0, lo + min(c0 + step, len(base))) + self.shift
            ang = (2.0 * math.pi * k) * (c / b ** (h + i)) + theta
            beta = np.concatenate([np.cos(ang), np.sin(ang)], axis=2) * (-weight * amp)
            row = lam**m * base[c0 : c0 + len(c)] + self.phi.c0 * weight.sum()
            row -= beta[:, :, 0].sum(axis=(0, 1))
            blk = out[:, c0 : c0 + len(c)]
            np.matmul(alpha, beta.reshape(-1, len(c)), out=blk)
            blk += row
        return out

    def block(self, lo: int, hi: int) -> np.ndarray:
        """W at s = a b^R + c for every a in [0, b^(level - R)) and c in
        [lo, hi), R the table level: row a, column c - lo, so the whole
        lattice in index order is block(0, b^R) flattened.  At level R it
        is a view of the table, one row, that the caller must not write
        while the lattice is in use."""
        if not 0 <= lo <= hi <= self.table.size:
            raise ValueError(f"need 0 <= lo <= hi <= b^R = {self.table.size}, got {lo}, {hi}")
        base = self.table[lo:hi]
        if self.level == self.table_level:
            return base.reshape(1, -1)
        if isinstance(self.phi, phimod.FourierPhi):
            return self._product(self.table_level, self.level, lo, base)
        rows = np.arange(self.params.b ** (self.level - self.table_level))[:, None]
        return self(rows * self.table.size + np.arange(lo, hi))

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        """W at the lattice points with integer indices ``idx``."""
        s = np.asarray(idx, dtype=np.int64)
        flat = s.reshape(-1)
        acc = self.table[flat % self.table.size]
        self._add_levels(acc, flat, range(self.table_level + 1, self.level + 1))
        return acc.reshape(s.shape)


def self_affinity_residual(
    params: SystemParams,
    phi: phimod.Phi,
    n_points: int = 1000,
    seed: int = 0,
    tol: float = 1e-12,
) -> float:
    """Largest |W(x) - phi(x) - lam W(frac(b x))| over seeded points.

    The defining relation holds exactly, so the result is bounded by twice
    the evaluation tolerance.
    """
    worst = 0.0
    for x in substream(seed, 0x5E1F).random(n_points):
        x = float(x) % 1.0
        bx = badic_offsets_exact(x, params.b, 2)[1]
        r = abs(
            eval_w(params, phi, x, tol)
            - float(phimod.eval_phi(phi, x))
            - params.lam * eval_w(params, phi, bx, tol)
        )
        worst = max(worst, r)
    return worst


# ---------------------------------------------------------------------------
# Fourier side


def fourier_of_w(params: SystemParams, phi: phimod.Phi, m_max: int) -> dict[int, complex]:
    """The nonzero Fourier coefficients A_m of W for |m| <= m_max: A_m = c_m
    + lam A_(m/b) when b divides m, A_m = c_m otherwise, A_0 = c_0 / (1 - lam)."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if not isinstance(phi, phimod.FourierPhi):
        raise TypeError("fourier_of_w needs a Fourier generator")
    lam, b = params.lam, params.b
    coeffs: dict[int, complex] = {}
    for m in range(-m_max, m_max + 1):
        if m == 0:
            a = phi.coeffs.get(0, 0.0 + 0.0j) / (1.0 - lam)
        else:  # A_m = sum_j lam^j c_(m / b^j) over the b-power divisors of m
            a = 0.0 + 0.0j
            q = m
            lam_pow = 1.0
            while True:
                a += lam_pow * phi.coeffs.get(q, 0.0 + 0.0j)
                if q % b != 0:  # m != 0, so q // b never reaches 0
                    break
                q //= b
                lam_pow *= lam
        if a != 0:
            coeffs[m] = a
    return coeffs


# ---------------------------------------------------------------------------
# the dichotomy, exactly: a polynomial is its list of Fraction coefficients,
# lowest power first, without trailing zeros


@dataclass(frozen=True)
class Dichotomy:
    """W at one (b, lam): analytic when lam is one of ``analytic_lambdas``
    or phi is constant; residual = max_k |P_k(1/lam)| at the float lam,
    and onset_level = max(0, log(1/residual) / log(b lam)), inf for a
    residual of 0, from which the rough part lam^n residual is one box
    b^-n tall.  At the float nearest a root that is no float the residual
    is of rounding size and W still reads analytic."""

    analytic: bool
    residual: float
    onset_level: float


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _chain_parts(b: int, phi: phimod.Phi) -> list[list[Fraction]]:
    """The real and then the imaginary part of each chain polynomial P_k(z)
    = sum_i c_(k b^i) z^i, b not dividing k, with c = w / 2 from the real
    form that is evaluated, exact since floats are dyadic rationals.  Past
    the top frequency K, ``fourier_of_w`` gives A_(k b^n) = lam^n P_k(1/lam),
    so W is a trigonometric polynomial, analytic, exactly when every P_k
    vanishes at 1/lam; otherwise |A_m| decays like |m|^(log_b lam): rough."""
    if not isinstance(phi, phimod.FourierPhi):
        raise TypeError("the dichotomy needs a Fourier generator")
    chains: dict[int, dict[int, complex]] = {}
    for k, w in zip(phi.freqs, phi.w):
        i = 0
        while k % b == 0:
            k, i = k // b, i + 1
        chains.setdefault(k, {})[i] = w / 2
    return [_trim([Fraction(getattr(c.get(i, 0j), part)) for i in range(max(c) + 1)])
            for c in chains.values() for part in ("real", "imag")]


def _at(p: list[Fraction], z: Fraction) -> Fraction:
    return functools.reduce(lambda v, c: v * z + c, reversed(p), Fraction(0))


def _deriv(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _divmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of p by a nonzero q."""
    r, quo = list(p), [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for i in reversed(range(len(quo))):
        quo[i] = r[i + len(q) - 1] / q[-1]
        for j, c in enumerate(q):
            r[i + j] -= quo[i] * c
    return quo, _trim(r[: len(q) - 1])


def _gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """The monic gcd over Q of p and q, not both zero."""
    while q:
        p, q = q, _divmod(p, q)[1]
    return [c / p[-1] for c in p]


def _sign_changes(seq: list[list[Fraction]], z: Fraction) -> int:
    signs = [v > 0 for v in (_at(p, z) for p in seq) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def dichotomy(params: SystemParams, phi: phimod.Phi) -> Dichotomy:
    """Analytic or rough, decided exactly from the chain polynomials: W is
    analytic when lam is the float nearest a common root 1/z of all their
    parts, one of ``analytic_lambdas``, so a twin whose coefficients were
    rounded still reads analytic at its own lam.  A constant phi, the
    paper's exception, is analytic at every lam; piecewise generators
    raise TypeError."""
    z = 1 / Fraction(params.lam)
    at = [_at(p, z) for p in _chain_parts(params.b, phi)]
    sq = max((re**2 + im**2 for re, im in zip(at[::2], at[1::2])), default=Fraction(0))
    if sq == 0:
        return Dichotomy(analytic=True, residual=0.0, onset_level=math.inf)
    log_inv_sq = math.log(sq.denominator) - math.log(sq.numerator)  # exact past float range
    onset = max(0.0, log_inv_sq / (2 * math.log(params.b * params.lam)))
    return Dichotomy(analytic=params.lam in analytic_lambdas(params.b, phi),
                     residual=math.sqrt(sq), onset_level=onset)


def analytic_lambdas(b: int, phi: phimod.Phi) -> tuple[float, ...]:
    """The lam in (1/b, 1) at which W is analytic, sorted: the floats
    nearest the common roots z = 1/lam of all parts of all P_k, which the
    Sturm sequence of their squarefree gcd over Q counts in (lo, hi] as
    bisection narrows (1, b] until 1/z is one float.  At the float of a
    root that is no float, ``dichotomy`` reads analytic with a residual of
    rounding size.  A constant phi raises ValueError, a piecewise one
    TypeError."""
    parts = [p for p in _chain_parts(check_base(b), phi) if p]
    if not parts:
        raise ValueError("a constant phi gives an analytic W at every lam")
    g = functools.reduce(_gcd, parts)
    g = _divmod(g, _gcd(g, _deriv(g)))[0]
    seq = [g, _deriv(g)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    lams, todo = set(), [(Fraction(1), Fraction(b))]
    while todo:
        lo, hi = todo.pop()
        n = _sign_changes(seq, lo) - _sign_changes(seq, hi)
        f1, f2 = float(1 / hi), float(1 / lo)
        if n == 1 and f1 == f2:
            lams.add(f1)
        elif n == 1 and math.nextafter(f1, 2.0) == f2:
            m = 2 / (Fraction(f1) + Fraction(f2))  # z at the midpoint of the two floats
            below = _sign_changes(seq, lo) - _sign_changes(seq, m)  # the root in (lo, m]
            lams.add(float(1 / m) if _at(g, m) == 0 else f2 if below else f1)
        elif n:
            todo += [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
    return tuple(sorted(lam for lam in lams if 1.0 / b < lam < 1.0))  # as make_params checks
