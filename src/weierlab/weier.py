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
so W there costs one phi evaluation per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import phi as phimod
from ._util import badic_offsets_exact, grid_sup, substream

__all__ = [
    "SystemParams",
    "make_params",
    "term_count",
    "eval_w",
    "eval_w_vec",
    "WLattice",
    "self_affinity_residual",
    "WFourier",
    "fourier_of_w",
    "wfourier_partial_sum",
    "EnergyBounds",
    "regulating_energy",
    "PeriodRow",
    "period_scan",
    "period_rows_to_csv",
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


def make_params(b: int, lam: float) -> SystemParams:
    """Build SystemParams, rejecting out-of-range input with a named constraint.

    >>> make_params(2, 0.7).dim
    1.4854268271702415
    """
    if not isinstance(b, (int, np.integer)) or b < 2:
        raise ValueError(f"b must be an integer >= 2, got {b!r}")
    lam = float(lam)
    if not lam < 1.0:
        raise ValueError(f"lam must satisfy lam < 1, got {lam!r}")
    if not lam > 1.0 / b:
        raise ValueError(f"lam must satisfy lam > 1/b = {1.0 / b!r}, got {lam!r}")
    gamma = 1.0 / (b * lam)
    dim = 2.0 + math.log(lam) / math.log(b)
    return SystemParams(b=int(b), lam=lam, gamma=gamma, dim=dim, holder_exp=2.0 - dim)


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
_LATTICE_BLOCK = 1 << 16  # points per pass of the phase arithmetic, bounding its temporaries


class WLattice:
    """W at the points x_s = (s + shift) / b^level of one shifted b-adic lattice.

    b x_s mod 1 is the point s mod b^(level-1) of the next coarser lattice
    with the same shift, so W(x) = phi(x) + lam W(b x mod 1) reads

        W_l[s] = phi((s + shift) / b^l) + lam W_(l-1)[s mod b^(l-1)],   W_0 = W(shift).

    The table W_R at the largest R <= level with b^R <= ``_LATTICE_TABLE``
    is built once by this recursion.  A call adds the first level - R terms
    from the exact integer phases ((s mod b^j) + shift) / b^j, j = R+1 ..
    level, with the same operations, so values do not depend on R.  The
    error is rounding plus lam^level times the error of W(shift) at ``tol``.
    ``start`` replaces W(shift) as W_0: 0 gives the finite sum of the first
    ``level`` terms.  W is 1-periodic, so every integer s is a valid index.
    """

    def __init__(self, params: SystemParams, phi: phimod.Phi, level: int,
                 shift: float = 0.0, tol: float = 1e-12, start: float | None = None):
        if level < 0 or params.b**level >= 2**63:
            raise ValueError(f"level must satisfy 0 <= b^level < 2^63, got {level}")
        if not 0.0 <= shift < 1.0:
            raise ValueError(f"shift must lie in [0, 1), got {shift!r}")
        self.params, self.phi, self.level, self.shift = params, phi, level, float(shift)
        term_count(params.lam, phimod.sup_deriv(phi, 0), tol)  # refuses a sum past float range
        table = np.array([eval_w(params, phi, shift, tol) if start is None else float(start)])
        self.table_level = 0
        while self.table_level < level and table.size * params.b <= _LATTICE_TABLE:
            self.table_level += 1
            below = table
            table = np.empty(below.size * params.b)
            table.reshape(params.b, below.size)[:] = below  # entry s holds W_(l-1)[s mod b^(l-1)]
            self._add_levels(table, np.arange(table.size), [self.table_level])
        self.table = table

    def _add_levels(self, acc: np.ndarray, s: np.ndarray, levels) -> None:
        """acc <- phi(((s mod b^j) + shift) / b^j) + lam acc for each j in turn, in place."""
        b, lam = self.params.b, self.params.lam
        for a in range(0, acc.size, _LATTICE_BLOCK):
            blk, sb = acc[a : a + _LATTICE_BLOCK], s[a : a + _LATTICE_BLOCK]
            for j in levels:
                blk *= lam
                blk += phimod.eval_phi(self.phi, (sb % b**j + self.shift) / b**j)

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


@dataclass
class WFourier:
    """Fourier data of W up to |m| <= m_max.

    Coefficients follow A_m = c_m + lam A_{m/b} when b divides m and
    A_m = c_m otherwise, with A_0 = c_0 / (1 - lam).
    """

    params: SystemParams
    m_max: int
    coeffs: dict[int, complex]


def fourier_of_w(params: SystemParams, phi: phimod.Phi, m_max: int) -> WFourier:
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
    return WFourier(params=params, m_max=m_max, coeffs=coeffs)


def wfourier_partial_sum(wf: WFourier, xs: np.ndarray, deriv: int = 0,
                         twist: Fraction | None = None) -> np.ndarray:
    """Partial sum over the stored coefficients, optionally twisted by a period.

    With twist = t, each term carries the factor (e^{2 pi i m t} - 1), which
    is the frequency picture of the difference W(x + t) - W(x).  The phase
    m t is reduced exactly for rational t before the complex exponential.
    """
    xs = np.asarray(xs, dtype=np.float64)
    acc = np.zeros(xs.shape, dtype=np.complex128)
    for m, a in wf.coeffs.items():
        term = a * (2j * math.pi * m) ** deriv
        if twist is not None:
            w = _twist(m, twist)
            if w == 0.0:
                continue
            term = term * w
        acc += term * np.exp((2j * math.pi * m) * xs)
    return acc.real.copy()


def _twist(m: int, t: Fraction) -> complex:
    """e^{2 pi i m t} - 1, with m t reduced mod 1 exactly."""
    phase = Fraction(m) * t
    return np.exp(2j * math.pi * float(phase - math.floor(phase))) - 1.0


# ---------------------------------------------------------------------------
# twisted-difference energies


@dataclass
class EnergyBounds:
    """Enclosure for the order-k energy of the period-t difference field.

    lo comes from the sup of the degree-m_max partial sum on a refined
    grid, corrected down by the tail bound when the tail converges; hi adds
    the analytic tail.  A divergent tail reports hi = inf and marks
    finite = False.
    """

    t: Fraction
    k: int
    m_max: int
    lo: float
    hi: float
    finite: bool
    trivial: bool


def _as_fraction(t) -> Fraction:
    if isinstance(t, Fraction):
        return t
    if isinstance(t, tuple):
        return Fraction(int(t[0]), int(t[1]))
    if isinstance(t, (int, np.integer)):
        return Fraction(int(t))
    return Fraction(float(t))


def _is_b_adic(den: int, b: int) -> bool:
    d = den
    while True:
        g = math.gcd(d, b)
        if g == 1:
            break
        while d % g == 0:
            d //= g
    return d == 1


def regulating_energy(
    params: SystemParams,
    phi: phimod.Phi,
    t,
    k: int,
    m_max: int = 64,
) -> EnergyBounds:
    """Bounds for E_k(t) = sup_x |d^k/dx^k (W(x + t) - W(x))|.

    The period t is taken as an exact rational (floats convert exactly).
    Integer t gives the zero field.  Rational t with a fully b-adic
    denominator kills every sufficiently deep frequency chain, so the tail
    is a finite sum and hi is finite regardless of lam b^k.
    """
    if not isinstance(phi, phimod.FourierPhi):
        raise TypeError("regulating_energy needs a Fourier generator")
    if k < 0:
        raise ValueError("k must be nonnegative")
    tq = _as_fraction(t)
    tq -= math.floor(tq)
    if tq == 0:
        return EnergyBounds(t=tq, k=k, m_max=m_max, lo=0.0, hi=0.0, finite=True, trivial=True)

    wf = fourier_of_w(params, phi, m_max)
    grid_n = 4 * params.b ** (int(math.ceil(math.log(max(m_max, 2)) / math.log(params.b))) + 2)

    def field(xs: np.ndarray) -> np.ndarray:
        return np.abs(wfourier_partial_sum(wf, xs, deriv=k, twist=tq))

    _, lo_raw = grid_sup(field, grid_n)

    tail, finite = _energy_tail(params, phi, tq, k, m_max)
    if finite:
        lo = max(0.0, lo_raw - tail)
        hi = _coeff_abs_sum(wf, tq, k) + tail
    else:
        lo = lo_raw
        hi = math.inf
    return EnergyBounds(
        t=tq, k=k, m_max=m_max, lo=lo, hi=hi, finite=finite,
        trivial=_is_b_adic(tq.denominator, params.b),
    )


def _coeff_abs_sum(wf: WFourier, tq: Fraction, k: int) -> float:
    total = 0.0
    for m, a in wf.coeffs.items():
        total += abs(a) * (2.0 * math.pi * abs(m)) ** k * abs(_twist(m, tq))
    return total


def _energy_tail(
    params: SystemParams, f: phimod.FourierPhi, tq: Fraction, k: int, m_max: int
) -> tuple[float, bool]:
    """Bound on the full-series energy beyond |m| = m_max; (bound, finite)."""
    b, lam = params.b, params.lam
    ratio = lam * float(b) ** k
    roots: dict[int, list[int]] = {}
    for freq in f.coeffs:
        if freq == 0:
            continue
        r = freq
        while r % b == 0:
            r //= b
        roots.setdefault(r, []).append(freq)
    peak = max((abs(v) for v in f.coeffs.values()), default=0.0)
    dead_tol = 1e-12 * peak
    total = 0.0
    for r, members in roots.items():
        j_top = max(_b_exponent(m // r, b) for m in members)
        # chain values A_{r b^j} by the recursion seeded from the generator table
        a = 0.0 + 0.0j
        j = 0
        while True:
            a = lam * a if j > 0 else 0.0 + 0.0j
            c = f.coeffs.get(r * b**j, 0.0 + 0.0j)
            a += c
            m = r * b**j
            if abs(m) > m_max:
                total += abs(a) * (2.0 * math.pi * abs(m)) ** k * abs(_twist(m, tq))
            if j >= j_top:
                break
            j += 1
        # beyond the last seeded level the chain is purely geometric
        j += 1
        m = r * b**j
        while abs(m) <= m_max:
            a *= lam
            j += 1
            m = r * b**j
        if abs(a) <= dead_tol:
            # the generator cancels the chain identically past its support
            continue
        # exact per-term walk when the twist eventually kills the chain
        if _chain_dies(tq, r, b):
            while True:
                phase = Fraction(m) * tq
                phase -= math.floor(phase)
                if phase == 0:
                    break
                a *= lam
                total += abs(a) * (2.0 * math.pi * abs(m)) ** k * 2.0
                j += 1
                m = r * b**j
            continue
        if ratio >= 1.0:
            return math.inf, False
        # geometric closed form with |e^{i phase} - 1| <= 2
        head = abs(a) * lam * (2.0 * math.pi * abs(m)) ** k
        total += 2.0 * head / (1.0 - ratio)
    return total, True


def _b_exponent(q: int, b: int) -> int:
    e = 0
    while q % b == 0:
        q //= b
        e += 1
    return e


def _chain_dies(tq: Fraction, r: int, b: int) -> bool:
    """True when r b^j t is an integer for all large j."""
    den = tq.denominator
    g = math.gcd(den, abs(r))
    return _is_b_adic(den // g, b)


@dataclass
class PeriodRow:
    t: Fraction
    k: int
    lo: float
    hi: float
    lo_doubled: float
    klass: str


def period_scan(
    params: SystemParams,
    phi: phimod.Phi,
    k: int,
    denominators: Iterable[int],
    m_max: int = 64,
    threshold: float = 100.0,
) -> list[PeriodRow]:
    """Classify candidate periods q/d for the order-k difference energy.

    Classes: ``trivial`` for fully b-adic denominators, ``non-regulating``
    when the tail diverges and the partial-sum floor beats the threshold at
    m_max and at 2 m_max both, ``candidate-regulating`` otherwise.
    """
    rows: list[PeriodRow] = []
    for d in denominators:
        d = int(d)
        if d < 1:
            raise ValueError("denominators must be positive")
        for q in range(1, d) if d > 1 else [0]:
            if d > 1 and math.gcd(q, d) != 1:
                continue
            t = Fraction(q, d)
            e1 = regulating_energy(params, phi, t, k, m_max)
            e2 = regulating_energy(params, phi, t, k, 2 * m_max)
            if e1.trivial:
                klass = "trivial"
            elif not e2.finite and e1.lo > threshold and e2.lo > threshold:
                klass = "non-regulating"
            else:
                klass = "candidate-regulating"
            rows.append(PeriodRow(t=t, k=k, lo=e1.lo, hi=e1.hi, lo_doubled=e2.lo, klass=klass))
    return rows


def period_rows_to_csv(rows: list[PeriodRow]) -> str:
    lines = ["t_num,t_den,k,E_lo,E_hi,class"]
    for r in rows:
        hi = "inf" if math.isinf(r.hi) else repr(float(r.hi))
        lines.append(
            f"{r.t.numerator},{r.t.denominator},{r.k},{float(r.lo)!r},{hi},{r.klass}"
        )
    return "\n".join(lines) + "\n"
