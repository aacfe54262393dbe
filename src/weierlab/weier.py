"""The limit function W(x) = sum_n lam^n phi(b^n x) and its frequency-side analysis.

Everything here works at a declared tolerance with closed-form truncation
counts, never adaptive stopping: the term count N is the smallest integer
with lam^(N+1) sup|phi| / (1 - lam) <= tol, computed before any evaluation.
Scalar evaluation reduces b^n x mod 1 with exact integer arithmetic on the
dyadic value of x; the vectorized path iterates t -> frac(b t) in float64,
which is exact for b = 2 only.  For other bases the rounding error grows
like b^n: at tol 1e-12 the vectorized W is off by up to 5.9e-10 at
(b, lam) = (3, 0.5) and by 0.19 at (3, 0.9) (ROADMAP defect D2, item 2).
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
    "self_affinity_residual",
    "WFourier",
    "fourier_of_w",
    "wfourier_partial_sum",
    "wfourier_to_csv",
    "holder_constant_estimate",
    "anti_holder_probe",
    "EnergyBounds",
    "regulating_energy",
    "KeyEstimateReport",
    "key_estimate_probe",
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
    """Smallest N >= 0 with lam^(N+1) * sup / (1 - lam) <= tol, closed form."""
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise ValueError("tol must be a finite positive number")
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


def eval_w_vec(
    params: SystemParams, phi: phimod.Phi, xs: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Vectorized W over an array of points; see the module note on precision."""
    sup = phimod.sup_deriv(phi, 0)
    n = term_count(params.lam, sup, tol)
    t = np.asarray(xs, dtype=np.float64) % 1.0
    acc = np.zeros_like(t)
    lam_pow = 1.0
    for _ in range(n + 1):
        acc += lam_pow * phimod.eval_phi(phi, t)
        lam_pow *= params.lam
        t = t * params.b
        t -= np.floor(t)
    return acc


def self_affinity_residual(
    params: SystemParams,
    phi: phimod.Phi,
    xs: Iterable[float] | None = None,
    n_points: int = 1000,
    seed: int = 0,
    tol: float = 1e-12,
) -> float:
    """Largest |W(x) - phi(x) - lam W(frac(b x))| over the given or seeded points.

    The defining relation holds exactly, so the result is bounded by twice
    the evaluation tolerance.
    """
    if xs is None:
        rng = substream(seed, 0x5E1F)
        xs = rng.random(n_points)
    worst = 0.0
    for x in xs:
        x = float(x) % 1.0
        bx = _exact_frac_bx(x, params.b)
        r = abs(
            eval_w(params, phi, x, tol)
            - float(phimod.eval_phi(phi, x))
            - params.lam * eval_w(params, phi, bx, tol)
        )
        worst = max(worst, r)
    return worst


def _exact_frac_bx(x: float, b: int) -> float:
    p, q = float(x).as_integer_ratio()
    return ((p * b) % q) / q


# ---------------------------------------------------------------------------
# Fourier side


@dataclass
class WFourier:
    """Fourier data of W up to |m| <= m_max.

    Coefficients follow A_m = c_m + lam A_{m/b} when b divides m and
    A_m = c_m otherwise, with A_0 = c_0 / (1 - lam).  err_bound[m] tracks
    accumulated rounding, essentially chain length times machine epsilon.
    """

    params: SystemParams
    m_max: int
    coeffs: dict[int, complex]
    err_bound: dict[int, float]
    phi_label: str = ""

    def __getitem__(self, m: int) -> complex:
        return self.coeffs.get(m, 0.0 + 0.0j)


def fourier_of_w(params: SystemParams, phi: phimod.Phi, m_max: int) -> WFourier:
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    f = phi
    if not isinstance(f, phimod.FourierPhi):
        raise TypeError("fourier_of_w needs a Fourier generator")
    lam, b = params.lam, params.b
    coeffs: dict[int, complex] = {}
    errs: dict[int, float] = {}
    for m in range(-m_max, m_max + 1):
        if m == 0:
            c0 = f.coeffs.get(0, 0.0 + 0.0j)
            a = c0 / (1.0 - lam)
            steps = 1
        else:
            a = 0.0 + 0.0j
            q = m
            lam_pow = 1.0
            steps = 0
            while True:
                a += lam_pow * f.coeffs.get(q, 0.0 + 0.0j)
                steps += 1
                if q % b != 0:
                    break
                q //= b
                lam_pow *= lam
                if q == 0:
                    break
        if a != 0:
            coeffs[m] = a
            errs[m] = abs(a) * steps * 2.0 * np.finfo(np.float64).eps
    return WFourier(params=params, m_max=m_max, coeffs=coeffs, err_bound=errs,
                    phi_label=getattr(f, "label", ""))


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
            frac_part = Fraction(m) * twist
            frac_part -= math.floor(frac_part)
            w = np.exp(2j * math.pi * float(frac_part)) - 1.0
            if w == 0.0:
                continue
            term = term * w
        acc += term * np.exp((2j * math.pi * m) * xs)
    return acc.real.copy()


def wfourier_to_csv(wf: WFourier) -> str:
    lines = ["m,re,im,err"]
    for m in sorted(wf.coeffs):
        a = wf.coeffs[m]
        lines.append(f"{m},{a.real!r},{a.imag!r},{float(wf.err_bound[m])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# modulus probes


@dataclass
class HolderReport:
    kappa_hat: float
    per_scale: list[tuple[float, float]]  # (delta, best ratio at that scale)


def holder_constant_estimate(
    params: SystemParams,
    phi: phimod.Phi,
    n_scales: int = 9,
    pairs_per_scale: int = 512,
    seed: int = 0,
    tol: float = 1e-12,
) -> HolderReport:
    """Empirical upper constant sup |W(x) - W(y)| / |x - y|^h over seeded pairs.

    Scales run over delta = b^-2 .. b^-(n_scales+1); doubling
    pairs_per_scale moves the estimate by less than twenty percent.
    """
    h = params.holder_exp
    per_scale = []
    best = 0.0
    for j in range(2, 2 + n_scales):
        delta = float(params.b) ** (-j)
        rng = substream(seed, 0x401D, j)
        xs = rng.random(pairs_per_scale)
        us = rng.random(pairs_per_scale) * delta
        w1 = eval_w_vec(params, phi, xs, tol)
        w2 = eval_w_vec(params, phi, (xs + us) % 1.0, tol)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.abs(w2 - w1) / np.maximum(us, 1e-300) ** h
        r = float(np.max(ratios))
        per_scale.append((delta, r))
        best = max(best, r)
    return HolderReport(kappa_hat=best, per_scale=per_scale)


def anti_holder_probe(
    params: SystemParams,
    phi: phimod.Phi,
    x: float,
    delta: float,
    grid_size: int = 512,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Best oscillation witness near x: returns (y, |W(y) - W(x)| / delta^h).

    y ranges over a grid of the punctured window [x - delta, x + delta].
    For a Lipschitz W the ratio decays like delta^(dim - 1) as delta -> 0;
    for a genuinely rough W it stabilizes at the lower modulus constant.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    offs = np.linspace(-delta, delta, 2 * grid_size + 1)
    ys = (x + offs) % 1.0
    w = eval_w_vec(params, phi, ys, tol)
    wx = eval_w(params, phi, x, tol)
    gaps = np.abs(w - wx)
    gaps[grid_size] = 0.0  # puncture y = x
    i = int(np.argmax(gaps))
    return float(ys[i]), float(gaps[i] / delta**params.holder_exp)


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
    refine: bool = True,
) -> EnergyBounds:
    """Bounds for E_k(t) = sup_x |d^k/dx^k (W(x + t) - W(x))|.

    The period t is taken as an exact rational (floats convert exactly).
    Integer t gives the zero field.  Rational t with a fully b-adic
    denominator kills every sufficiently deep frequency chain, so the tail
    is a finite sum and hi is finite regardless of lam b^k.
    """
    f = phi
    if not isinstance(f, phimod.FourierPhi):
        raise TypeError("regulating_energy needs a Fourier generator")
    if k < 0:
        raise ValueError("k must be nonnegative")
    tq = _as_fraction(t)
    tq -= math.floor(tq)
    if tq == 0:
        return EnergyBounds(t=tq, k=k, m_max=m_max, lo=0.0, hi=0.0, finite=True, trivial=True)

    wf = fourier_of_w(params, f, m_max)
    grid_n = 4 * params.b ** (int(math.ceil(math.log(max(m_max, 2)) / math.log(params.b))) + 2)

    def field(xs: np.ndarray) -> np.ndarray:
        return np.abs(wfourier_partial_sum(wf, xs, deriv=k, twist=tq))

    _, lo_raw = grid_sup(field, grid_n, refine=refine)

    tail, finite = _energy_tail(params, f, tq, k, m_max)
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
        frac_part = Fraction(m) * tq
        frac_part -= math.floor(frac_part)
        w = abs(np.exp(2j * math.pi * float(frac_part)) - 1.0)
        total += abs(a) * (2.0 * math.pi * abs(m)) ** k * w
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
                phase = Fraction(m) * tq
                phase -= math.floor(phase)
                w = abs(np.exp(2j * math.pi * float(phase)) - 1.0)
                total += abs(a) * (2.0 * math.pi * abs(m)) ** k * w
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
class KeyEstimateReport:
    t: Fraction
    e2_lo: float
    e2_hi: float
    product: float
    per_m: list[tuple[int, float, float]]  # (m_max, lo, product)
    trivial: bool


def key_estimate_probe(
    params: SystemParams,
    phi: phimod.Phi,
    t,
    m_maxes: tuple[int, ...] = (16, 32, 64),
) -> KeyEstimateReport:
    """Reports E_2 bounds and the scaled product dist(t, Z) * sqrt(E2_lo).

    Integer periods flag trivial and report (0, 0); t congruent to 0 mod 1
    but passed as 0 itself is rejected since the probe needs a period.
    """
    tq = _as_fraction(t)
    if tq == 0:
        raise ValueError("t = 0 is not a period; probe needs a nonzero shift")
    tq_red = tq - math.floor(tq)
    if tq_red == 0:
        return KeyEstimateReport(t=tq, e2_lo=0.0, e2_hi=0.0, product=0.0,
                                 per_m=[(m, 0.0, 0.0) for m in m_maxes], trivial=True)
    dist = float(min(tq_red, 1 - tq_red))
    per_m = []
    last = None
    for m in m_maxes:
        eb = regulating_energy(params, phi, tq_red, 2, m)
        prod = dist * math.sqrt(max(eb.lo, 0.0))
        per_m.append((m, eb.lo, prod))
        last = eb
    assert last is not None
    return KeyEstimateReport(
        t=tq_red, e2_lo=last.lo, e2_hi=last.hi,
        product=dist * math.sqrt(max(last.lo, 0.0)),
        per_m=per_m, trivial=False,
    )


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
