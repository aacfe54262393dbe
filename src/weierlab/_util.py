"""Shared numeric helpers: exact b-adic arithmetic, grid suprema, OLS, atomic IO."""

from __future__ import annotations

import math
import os
import tempfile
from fractions import Fraction

import numpy as np

__all__ = [
    "badic_offsets_exact",
    "floor_scaled_log",
    "ceil_log_ratio",
    "grid_sup",
    "golden_refine",
    "ols_fit",
    "atomic_write_text",
    "substream",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def badic_offsets_exact(x: float, b: int, count: int) -> np.ndarray:
    """Float64 values of frac(b^n x), n = 0 .. count-1, via exact integer arithmetic.

    Every float is a dyadic rational, so frac(b^n x) = (b^n p mod q) / q with
    x = p / q exact.  Each entry is then the correctly rounded float of that
    exact rational.
    """
    if not 0.0 <= x:
        x = x - math.floor(x)
    p, q = float(x).as_integer_ratio()
    p %= q
    out = np.empty(count, dtype=np.float64)
    for n in range(count):
        out[n] = p / q
        p = (p * b) % q
    return out


def _scale_le(b: int, q: int, num: int, den: int, t: int) -> bool:
    """b^q * lam^t <= 1 for lam = num / den, decided in integers."""
    return b**q * num**t <= den**t


def floor_scaled_log(t: int, b: int, lam: float) -> int:
    """floor(t * log_b(1/lam)) for 0 < lam < 1, decided exactly.

    The float estimate only seeds the search: the answer is the largest
    q >= 0 with b^q * lam^t <= 1, settled by exact integer comparisons, so
    boundary cases such as b = 4, lam = 0.25 where the product is an exact
    integer come out right.
    """
    lam_frac = Fraction(lam)
    num, den = lam_frac.numerator, lam_frac.denominator
    q = max(0, math.floor(t * -math.log(lam) / math.log(b)))
    while q > 0 and not _scale_le(b, q, num, den, t):
        q -= 1
    while _scale_le(b, q + 1, num, den, t):
        q += 1
    return q


def ceil_log_ratio(n: int, b: int, lam: float) -> int:
    """Smallest integer m >= 0 with lam^m <= b^(-n), for 0 < lam < 1.

    Exact in the same sense as :func:`floor_scaled_log`.  Ties, where
    lam^m equals b^(-n) exactly, resolve to that m.
    """
    lam_frac = Fraction(lam)
    num, den = lam_frac.numerator, lam_frac.denominator
    m = max(0, math.ceil(n * math.log(b) / -math.log(lam)))
    while not _scale_le(b, n, num, den, m):
        m += 1
    while m > 0 and _scale_le(b, n, num, den, m - 1):
        m -= 1
    return m


def golden_refine(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden section maximization of f on [lo, hi]; returns (argmax, max)."""
    a, b_ = lo, hi
    c = b_ - _GOLDEN * (b_ - a)
    d = a + _GOLDEN * (b_ - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b_, d, fd = d, c, fc
            c = b_ - _GOLDEN * (b_ - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b_ - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def grid_sup(fvec, n_points: int, refine: bool = True, lo: float = 0.0, hi: float = 1.0,
             refine_iters: int = 60) -> tuple[float, float]:
    """Supremum of a scalar field on [lo, hi) estimated from a uniform grid.

    Parameters
    ----------
    fvec : callable
        Vectorized map ndarray -> ndarray of the quantity to maximize
        (callers pass absolute values themselves if needed).
    n_points : int
        Grid resolution; endpoint excluded.
    refine : bool
        When set, one golden section pass runs on the bracket around the
        grid argmax.  Deterministic, fixed iteration count.

    Returns
    -------
    (x_star, sup_value)
    """
    xs = lo + (hi - lo) * np.arange(n_points, dtype=np.float64) / n_points
    vals = np.asarray(fvec(xs), dtype=np.float64)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    if refine:
        step = (hi - lo) / n_points
        a = max(lo, best_x - step)
        b_ = min(hi, best_x + step)
        xr, vr = golden_refine(lambda t: float(fvec(np.array([t]))[0]), a, b_, refine_iters)
        if vr > best_v:
            best_x, best_v = xr, vr
    return best_x, best_v


def ols_fit(x, y) -> tuple[float, float, float]:
    """Least squares line y ~ a + s x; returns (slope, intercept, slope_stderr)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least two points for a slope")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate abscissa")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    if n > 2:
        resid = y - (intercept + slope * x)
        stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return slope, float(intercept), stderr


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path atomically (temp file in the same directory, then rename)."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a keyed substream of a root seed.

    Sharded sampling relies on this: stratum i of a run seeded s always
    draws from substream(s, i) no matter how work is split across chunks.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

