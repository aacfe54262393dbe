"""Shared numeric helpers: exact b-adic arithmetic, grid suprema, OLS, atomic IO."""

from __future__ import annotations

import decimal
import functools
import math
import operator
import os
import tempfile

import numpy as np

__all__ = [
    "badic_offsets_exact",
    "floor_scaled_log",
    "ceil_log_ratio",
    "depth_index",
    "grid_sup",
    "bracket_max",
    "ols_fit",
    "atomic_write_text",
    "substream",
]

_BRACKET_POINTS = 513  # points per bracket of bracket_max, ends included


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


# Rounding bound of the float sign test in _scale_le, as a share of
# q log b + t log(1/lam): 8 units of roundoff, twice the worst case.
_MARGIN = 2.0**-50
_FIXED_BITS = 256  # fixed-point logs are integers in units of 2^-256


def _fixed_log(p: int, q: int) -> int:
    """round(ln(p / q) 2^256), within 1 of exact: the quotient, decimal's
    correctly rounded ln and the product round at 90 digits, 2^-299 each."""
    with decimal.localcontext(prec=90):
        ratio = decimal.Decimal(p) / q
        return int((ratio.ln() * (1 << _FIXED_BITS)).to_integral_value())


@functools.lru_cache(maxsize=256)
def _scale_constants(b: int, lam: float):
    """(num, den, log b, log(1/lam), tie exponents, fixed-point log b,
    fixed-point log(1/lam)) for lam = num / den.

    A float lam is num / 2^e with num odd, so b^q lam^t = 1 with t > 0
    needs num^t = 1 and b^q = 2^(e t): num = 1 and b = 2^k.  Only then are
    the exponents (k, e) given; otherwise they are None and no tie exists.
    """
    num, den = lam.as_integer_ratio()
    ties = (b.bit_length() - 1, den.bit_length() - 1) if num == 1 and b & (b - 1) == 0 else None
    return (num, den, math.log(b), -math.log(lam), ties,
            _fixed_log(b, 1), _fixed_log(den, num))


def _power_le(b: int, q: int, num: int, den: int, t: int) -> bool:
    """b^q num^t <= den^t in exact integers, the last tier of ``_scale_le``."""
    return b**q * num**t <= den**t


def _scale_le(b: int, q: int, lam: float, t: int) -> bool:
    """b^q * lam^t <= 1, decided exactly.

    Where ties can happen (lam = 2^-e, b = 2^k) this is the integer compare
    k q <= e t.  Elsewhere the sign of s = q log b - t log(1/lam) decides,
    computed in floats: each log is within one ulp, and the two products
    and the difference round once each, so the float s is within 4 units
    of roundoff (2^-53) of (q log b + t log(1/lam)) of the true one, and a
    float s beyond ``_MARGIN`` times that sum has the true sign.  That
    band holds q = t = 0 and, for lam within rounding of some b^(-j/k),
    about the t that are multiples of k.  Inside it, s is taken again from
    logs in units of 2^-256, each within 1 of exact, so its sign is certain
    once |s| > q + t + 1; only inside that band are the integers b^q num^t
    and den^t compared, which in practice means q = t = 0.
    """
    num, den, log_b, log_inv, ties, fixed_b, fixed_inv = _scale_constants(b, lam)
    if ties is not None:
        k, e = ties
        return k * q <= e * t
    up, down = q * log_b, t * log_inv
    if abs(up - down) > _MARGIN * (up + down):
        return up < down
    s = q * fixed_b - t * fixed_inv
    if abs(s) > q + t + 1:
        return s < 0
    return _power_le(b, q, num, den, t)


def floor_scaled_log(t: int, b: int, lam: float) -> int:
    """floor(t * log_b(1/lam)) for 0 < lam < 1, decided exactly.

    The answer is the largest q >= 0 with b^q * lam^t <= 1.  A float
    estimate seeds q and ``_scale_le`` settles each step: an integer
    compare of exponents where ties can happen (b = 4, lam = 0.25, where
    the product is exactly 1 and the tie goes to q), a float log margin
    test elsewhere, fixed-point logs inside that test's rounding band, and
    a compare of exact integer powers only where those cannot tell.
    """
    q = max(0, math.floor(t * -math.log(lam) / math.log(b)))
    while q > 0 and not _scale_le(b, q, lam, t):
        q -= 1
    while _scale_le(b, q + 1, lam, t):
        q += 1
    return q


def ceil_log_ratio(n: int, b: int, lam: float) -> int:
    """Smallest integer m >= 0 with lam^m <= b^(-n), for 0 < lam < 1.

    Decided as in :func:`floor_scaled_log`, by ``_scale_le``.  Ties, where
    lam^m equals b^(-n) exactly, resolve to that m.
    """
    m = max(0, math.ceil(n * math.log(b) / -math.log(lam)))
    while not _scale_le(b, n, lam, m):
        m += 1
    while m > 0 and _scale_le(b, n, lam, m - 1):
        m -= 1
    return m


def depth_index(value, name: str) -> int:
    """A nonnegative integer depth argument, taken exactly through
    ``operator.index``: numpy integers give Python ints, while floats and
    bools raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def bracket_max(f, lo, hi) -> np.ndarray:
    """Max of a vectorized f on every bracket [lo_i, hi_i], from
    ``_BRACKET_POINTS`` equally spaced points per bracket, ends included.

    f takes all brackets' points in one call, as an array of shape
    (brackets, ``_BRACKET_POINTS``).
    """
    lo = np.asarray(lo, dtype=np.float64)[:, None]
    hi = np.asarray(hi, dtype=np.float64)[:, None]
    return np.max(f(lo + (hi - lo) * np.linspace(0.0, 1.0, _BRACKET_POINTS)), axis=1)


def grid_sup(fvec, n_points: int) -> float:
    """Supremum of a scalar field on [0, 1) from a uniform grid, refined.

    ``fvec`` is a vectorized map ndarray -> ndarray of the quantity to
    maximize (callers pass absolute values themselves if needed).  It is
    called twice: once on the n_points grid, endpoint excluded, and once
    by ``bracket_max`` on the two grid cells beside the grid maximum.
    The result is the larger of the two maxima, so it never falls below
    the grid's.
    """
    xs = np.arange(n_points, dtype=np.float64) / n_points
    vals = np.asarray(fvec(xs), dtype=np.float64)
    i = int(np.argmax(vals))
    step = 1.0 / n_points
    refined = bracket_max(fvec, [max(0.0, xs[i] - step)], [min(1.0, xs[i] + step)])
    return max(float(vals[i]), float(refined[0]))


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

