"""b-adic histogram measures, entropy estimators, and dimension probes.

The graph measure mu is the pushforward of Lebesgue measure on [0, 1) under
x -> (x, W(x)); its flow projections pi_code mu are one-dimensional
measures sampled here as values W(x) - Gamma(x, code).  Histograms live on
the b-adic cell lattice: a value v occupies cell floor(v * b^level) and
coarsening by integer division is exact, which makes entropy chain-rule
identities hold to rounding rather than to statistical error.

Entropies are reported in log base b throughout, so entropy-per-level
slopes are dimension estimates directly comparable with D = 2 + log_b lam.
Sampling is stratified by default: the points are the shifted b-adic
lattice x_s = (s + u) / b^L, one per fine cell of [0, 1), with one seeded
shift u (a Cranley-Patterson rotation).  Any shard of the index range
reproduces the same points, and ``weier.WLattice`` evaluates W on the
lattice with one phi evaluation per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import phi as phimod
from ._util import ceil_log_ratio, depth_index, ols_fit, substream
from .kernel import Code, _gamma_blocks, eval_gamma_vec, seeded_code
from .weier import WLattice
# no caller in this module: kept because perfbench/tracing.py patches it here by name
from .weier import eval_w_vec  # noqa: F401

__all__ = [
    "BadicHistogram",
    "histogram_from_values",
    "histogram_from_points",
    "entropy",
    "coarsen",
    "component_measure",
    "histogram_quantiles",
    "hist_to_text",
    "hist_from_text",
    "EntropyCurve",
    "sample_projected_measure",
    "stratified_x",
    "alpha_estimate",
    "AlphaReport",
    "graph_box_dimension",
    "BoxDimReport",
    "dim_mu_check",
    "DimMuReport",
    "n_hat",
    "ucas_probe",
    "UcasReport",
    "porosity_probe",
    "PorosityReport",
]


# ---------------------------------------------------------------------------
# histograms


@dataclass
class BadicHistogram:
    """Sparse nonnegative measure on the level-``level`` b-adic lattice.

    ``keys`` holds cell indices (shape (m,) in one dimension, (m, 2) in
    two), sorted, unique, with strictly positive ``masses``.  ``window``
    is the level-0 bounding box, one (lo, hi) pair per axis with hi
    exclusive.  ``total`` caches the mass sum.
    """

    b: int
    level: int
    keys: np.ndarray
    masses: np.ndarray
    window: tuple[tuple[int, int], ...]
    total: float
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return 1 if self.keys.ndim == 1 else int(self.keys.shape[1])

    @property
    def n_cells(self) -> int:
        return int(len(self.masses))


def _window_of(keys: np.ndarray, b: int, level: int) -> tuple[tuple[int, int], ...]:
    cols = keys.reshape(len(keys), -1)
    return tuple((int(lo) // b**level, int(hi) // b**level + 1)
                 for lo, hi in zip(cols.min(axis=0), cols.max(axis=0)))


def _pack_histogram(
    b: int, level: int, keys: np.ndarray, masses: np.ndarray, meta: dict | None = None
) -> BadicHistogram:
    """Sort, merge duplicate cells, drop zeros, and wrap."""
    order = np.argsort(keys, kind="stable") if keys.ndim == 1 else np.lexsort(keys.T[::-1])
    keys, masses = keys[order], masses[order]
    cols = keys[:, None] if keys.ndim == 1 else keys
    boundary = np.ones(len(keys), dtype=bool)
    boundary[1:] = np.any(cols[1:] != cols[:-1], axis=1)
    starts = np.flatnonzero(boundary)
    merged = np.add.reduceat(masses, starts)
    keys = keys[starts]
    keep = merged > 0.0
    keys, merged = keys[keep], merged[keep]
    if len(merged) == 0:
        raise ValueError("histogram has zero total mass")
    return BadicHistogram(
        b=b,
        level=level,
        keys=keys,
        masses=merged,
        window=_window_of(keys, b, level),
        total=float(merged.sum()),
        meta=dict(meta or {}),
    )


def _cell_indices(values: np.ndarray, b: int, level: int) -> np.ndarray:
    scaled = values * float(b) ** level
    if not np.max(np.abs(scaled)) < 2.0**62:  # also false for NaN
        raise ValueError("values are non-finite or too large: cell indices would overflow")
    return np.floor(scaled).astype(np.int64)


class _CellCounts:
    """Dense counts of the cells floor(v * b^level) of values added block by block.

    The count array grows when a block widens the index range.  Once the
    range passes max(4 n, 2^22) cells for the n values expected in all,
    ``add`` returns False and the counts are no longer kept: sorting is
    then the cheaper way to the histogram.
    """

    def __init__(self, b: int, level: int, n: int):
        self.b, self.level = b, level
        self.limit = max(4 * n, 1 << 22)
        self.lo = 0
        self.counts = np.zeros(0, dtype=np.int64)

    def add(self, values: np.ndarray) -> bool:
        idx = _cell_indices(values, self.b, self.level)
        blo, bhi = int(idx.min()), int(idx.max())
        lo, hi = blo, bhi
        if len(self.counts):
            lo, hi = min(lo, self.lo), max(hi, self.lo + len(self.counts) - 1)
        if hi - lo + 1 > self.limit:
            return False
        if hi - lo + 1 > len(self.counts):
            grown = np.zeros(hi - lo + 1, dtype=np.int64)
            grown[self.lo - lo:self.lo - lo + len(self.counts)] = self.counts
            self.lo, self.counts = lo, grown
        self.counts[blo - self.lo:bhi - self.lo + 1] += np.bincount(idx - blo)
        return True

    def histogram(self, meta: dict | None = None) -> BadicHistogram:
        nz = np.flatnonzero(self.counts)
        return _pack_histogram(self.b, self.level, nz + self.lo,
                               self.counts[nz].astype(np.float64), meta)


def histogram_from_values(
    values: np.ndarray,
    b: int,
    level: int,
    weights: np.ndarray | None = None,
    meta: dict | None = None,
) -> BadicHistogram:
    """One-dimensional histogram of floor(values * b^level).

    A dense ``bincount`` path handles the common case of a narrow value
    range; wide or pathological ranges fall back to sort-and-merge.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("histogram needs at least one value")
    if weights is None:
        counts = _CellCounts(b, level, len(values))
        if counts.add(values):
            return counts.histogram(meta)
    w = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=np.float64)
    return _pack_histogram(b, level, _cell_indices(values, b, level), w, meta)


def histogram_from_points(
    xs: np.ndarray,
    ys: np.ndarray,
    b: int,
    level: int,
) -> BadicHistogram:
    """Two-dimensional histogram of the point set on level-``level`` squares."""
    scale = float(b) ** level
    ix = np.floor(np.asarray(xs, dtype=np.float64) * scale).astype(np.int64)
    iy = np.floor(np.asarray(ys, dtype=np.float64) * scale).astype(np.int64)
    keys = np.stack([ix, iy], axis=1)
    return _pack_histogram(b, level, keys, np.ones(len(ix)))


def entropy(hist: BadicHistogram, base_b: int | None = None) -> float:
    """Shannon entropy in log base ``base_b`` (the histogram's b when omitted).

    The 0 log 0 = 0 convention is automatic because zero-mass cells never
    survive packing.
    """
    if hist.total <= 0.0:
        raise ValueError("entropy of a zero-mass histogram is undefined")
    base = hist.b if base_b is None else base_b
    p = hist.masses / hist.total
    return float(-(p * np.log(p)).sum() / math.log(base))


def coarsen(hist: BadicHistogram, new_level: int) -> BadicHistogram:
    """Exact pushforward to a coarser lattice by integer index division."""
    if new_level > hist.level:
        raise ValueError("coarsen target must not exceed the current level")
    if new_level == hist.level:
        return hist
    d = hist.b ** (hist.level - new_level)
    keys = hist.keys // d
    return _pack_histogram(hist.b, new_level, keys, hist.masses.copy(), hist.meta)


def component_measure(
    hist: BadicHistogram, cell_level: int, cell_index
) -> BadicHistogram:
    """Normalized restriction of the measure to one coarser cell.

    The component keeps absolute coordinates and the original level; its
    total is 1.  Mixing all components of a level with their cell masses
    recovers the measure exactly.
    """
    if cell_level > hist.level:
        raise ValueError("component cell must be at a coarser or equal level")
    d = hist.b ** (hist.level - cell_level)
    if hist.dim == 1:
        sel = hist.keys // d == int(cell_index)
    else:
        ci = np.asarray(cell_index, dtype=np.int64)
        sel = np.all(hist.keys // d == ci[None, :], axis=1)
    if not np.any(sel):
        raise ValueError("component cell carries no mass")
    masses = hist.masses[sel]
    return BadicHistogram(
        b=hist.b,
        level=hist.level,
        keys=hist.keys[sel].copy(),
        masses=masses / masses.sum(),
        window=hist.window,
        total=1.0,
        meta=dict(hist.meta),
    )


def histogram_quantiles(hist: BadicHistogram, qs: Sequence[float]) -> np.ndarray:
    """Value-scale quantiles of a one-dimensional histogram (cell centers)."""
    if hist.dim != 1:
        raise ValueError("quantiles need a one-dimensional histogram")
    cum = np.cumsum(hist.masses) / hist.total
    scale = float(hist.b) ** hist.level
    picks = np.searchsorted(cum, np.asarray(qs, dtype=np.float64), side="left")
    picks = np.clip(picks, 0, hist.n_cells - 1)
    return (hist.keys[picks] + 0.5) / scale


def hist_to_text(hist: BadicHistogram) -> str:
    """Serialize as a header line ``dim level window`` then ``cell_index mass``
    lines; two-dimensional cell indices join their coordinates with a comma."""
    win = " ".join(f"{lo} {hi}" for lo, hi in hist.window)
    lines = [f"{hist.dim} {hist.level} {win}"]
    for k, m in zip(hist.keys.tolist(), hist.masses.tolist()):
        lines.append(f"{k} {m!r}" if hist.dim == 1 else f"{k[0]},{k[1]} {m!r}")
    return "\n".join(lines) + "\n"


def hist_from_text(text: str, b: int) -> BadicHistogram:
    """Parse the format of ``hist_to_text``; lines starting with # are comments.

    A missing header, a dimension other than 1 or 2, and a mass that is
    negative or not finite raise ValueError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) < 2:
        raise ValueError("histogram text needs a header line 'dim level window'")
    dim, level = int(head[0]), int(head[1])
    if dim not in (1, 2):
        raise ValueError(f"histogram dimension must be 1 or 2, got {dim}")
    keys = []
    masses = []
    for ln in lines[1:]:
        cell, mass = ln.split()
        if dim == 1:
            keys.append(int(cell))
        else:
            a, b_ = cell.split(",")
            keys.append((int(a), int(b_)))
        masses.append(float(mass))
    mass_arr = np.asarray(masses, dtype=np.float64)
    if not (np.isfinite(mass_arr).all() and (mass_arr >= 0.0).all()):
        raise ValueError("histogram masses must be finite and nonnegative")
    return _pack_histogram(b, level, np.asarray(keys, dtype=np.int64), mass_arr)


# ---------------------------------------------------------------------------
# entropy curves


@dataclass
class EntropyCurve:
    """Entropy per level with an OLS slope over a declared window.

    values are in log base b, nondecreasing in the level, and bounded by
    level + log_b(level-0 window cell count).
    """

    levels: tuple[int, ...]
    values: tuple[float, ...]
    window: tuple[int, ...]
    slope: float
    slope_stderr: float


def _fit_curve(levels: Sequence[int], values: Sequence[float],
               window: Sequence[int]) -> EntropyCurve:
    win = tuple(sorted(window))
    xs = np.array([lv for lv in levels if lv in win], dtype=np.float64)
    ys = np.array([v for lv, v in zip(levels, values) if lv in win])
    if len(xs) < 2:
        raise ValueError("slope window needs at least two levels")
    slope, _, stderr = ols_fit(xs, ys)
    return EntropyCurve(
        levels=tuple(int(lv) for lv in levels),
        values=tuple(float(v) for v in values),
        window=win,
        slope=float(slope),
        slope_stderr=float(stderr),
    )


def _entropy_curve(fine: BadicHistogram, window: Sequence[int]) -> EntropyCurve:
    """Entropies of every coarsening of ``fine`` from level 1 up, fitted over ``window``."""
    all_levels = list(range(1, fine.level + 1))
    return _fit_curve(all_levels, [entropy(coarsen(fine, lv)) for lv in all_levels], window)


# ---------------------------------------------------------------------------
# sampling


def _lattice_shift(seed: int) -> float:
    """The one seeded shift u in [0, 1) of the sampling lattice (s + u) / n."""
    return float(substream(seed, 0x5A17, 0).random())


def stratified_x(n_strata: int, lo_stratum: int, hi_stratum: int, seed: int) -> np.ndarray:
    """Stratified points (s + u) / n_strata for s in [lo, hi), one seeded shift u.

    Every stratum shares the shift, so any partition of the stratum range
    into shards reproduces the same points.
    """
    u = _lattice_shift(seed)
    return (np.arange(lo_stratum, hi_stratum, dtype=np.float64) + u) / n_strata


def _strata_level(b: int, n_samples: int) -> int:
    level = 0
    cells = 1
    while cells < n_samples:
        cells *= b
        level += 1
    return level


def _lattice_sample(params, phi: phimod.Phi, level: int, seed: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``stratified_x`` at n = b^level and W there, from the lattice."""
    n = params.b**level
    xs = stratified_x(n, 0, n, seed)
    w = WLattice(params, phi, level, _lattice_shift(seed), tol)(np.arange(n))
    return xs, w


def sample_projected_measure(
    params,
    phi: phimod.Phi,
    code: Code,
    n_samples: int,
    level: int,
    seed: int = 0,
    tol: float = 1e-9,
) -> BadicHistogram:
    """Histogram at ``level`` of the flow projection of the graph measure.

    One x per cell of the level-ceil(log_b n_samples) partition of [0, 1),
    all cells sharing one seeded shift, so the histogram is deterministic
    given the seed and independent of sharding.  The ``undersampled`` meta
    flag marks n_samples < b^level.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    s_level = _strata_level(params.b, n_samples)
    xs, vals = _lattice_sample(params, phi, s_level, seed, tol)
    vals -= eval_gamma_vec(params, phi, xs, code, tol)
    meta = {
        "seed": seed,
        "n_samples": int(params.b**s_level),
        "undersampled": bool(n_samples < params.b**level),
        "stratified": True,
        "strata_level": s_level,
    }
    return histogram_from_values(vals, params.b, level, meta=meta)


# ---------------------------------------------------------------------------
# alpha and dimension estimators


@dataclass
class AlphaReport:
    curves: list[EntropyCurve]
    alphas: tuple[float, ...]
    median: float
    iqr: float
    meta: dict


def alpha_estimate(
    params,
    phi: phimod.Phi,
    codes: Sequence[Code],
    levels: Sequence[int],
    n_samples: int,
    seed: int = 0,
    tol: float = 1e-9,
) -> AlphaReport:
    """Entropy dimension of the projected measures, one slope per code.

    Every code shares the same stratified x sample, so code-to-code
    spread reflects the projection direction alone.  Entropies at all
    levels up to the window top come from one finest histogram by exact
    coarsening; the summary is the median slope with interquartile range.
    """
    levels = sorted(int(lv) for lv in levels)
    if len(levels) < 2:
        raise ValueError("alpha_estimate needs at least two levels")
    codes = list(codes)
    if not codes:
        raise ValueError("alpha_estimate needs at least one code")
    top = levels[-1]
    s_level = _strata_level(params.b, n_samples)
    n = params.b**s_level
    xs, w = _lattice_sample(params, phi, s_level, seed, tol)
    dense: list[_CellCounts | None] = [_CellCounts(params.b, top, n) for _ in codes]
    for sl, gammas in _gamma_blocks(params, phi, xs, codes, tol):
        vals = w[sl, None] - gammas
        for j, counts in enumerate(dense):
            if counts is not None and not counts.add(vals[:, j]):
                dense[j] = None
    curves = []
    for code, counts in zip(codes, dense):
        if counts is None:  # a range too wide to count densely
            hist = histogram_from_values(w - eval_gamma_vec(params, phi, xs, code, tol),
                                         params.b, top)
        else:
            hist = counts.histogram()
        curves.append(_entropy_curve(hist, levels))
    arr = np.array([curve.slope for curve in curves])
    q1, q3 = np.percentile(arr, [25, 75])
    return AlphaReport(
        curves=curves,
        alphas=tuple(float(a) for a in arr),
        median=float(np.median(arr)),
        iqr=float(q3 - q1),
        meta={
            "seed": seed,
            "n_samples": int(n),
            "strata_level": s_level,
            "shared_x": True,
            "levels": tuple(levels),
        },
    )


@dataclass
class BoxDimReport:
    levels: tuple[int, ...]
    counts: tuple[int, ...]
    log_counts: tuple[float, ...]
    window: tuple[int, ...]
    slope: float
    slope_stderr: float
    column_level: int
    n_samples: int
    d_reference: float


_BLOCK_COLUMNS = 1 << 16  # columns per block of graph_box_dimension


def graph_box_dimension(
    params,
    phi: phimod.Phi,
    levels: Sequence[int],
    n_samples: int,
    seed: int = 0,
    column_margin: int = 3,
    tol: float = 1e-9,
) -> BoxDimReport:
    """Box-counting dimension estimate of the graph of W.

    W is sampled at the lattice points (s + u) / b^L, one per level-L
    column, all sharing one seeded shift u, with L the larger of
    ceil(log_b n_samples) and max(levels) + column_margin; per-column
    minima and maxima of W then yield the number of level-n squares the
    sampled graph meets, N_n = sum over columns of floor(b^n max) -
    floor(b^n min) + 1, for every n at once.  The slope of log_b N_n
    over the declared window estimates the dimension (a constant wave
    gives exactly 1).  The margin keeps several samples in every counted
    column so that sampled column ranges track the true oscillation.  W
    is evaluated, and boxes counted, in blocks of ``_BLOCK_COLUMNS`` columns,
    so no temporary grows with the column count.
    """
    levels = sorted(int(lv) for lv in levels)
    if len(levels) < 2:
        raise ValueError("graph_box_dimension needs at least two levels")
    n_max = levels[-1]
    col_level = max(_strata_level(params.b, n_samples), n_max + column_margin)
    n_cols_fine = params.b**n_max
    per_col = params.b ** (col_level - n_max)
    total = params.b**col_level
    col_min = np.full(n_cols_fine, np.inf)
    col_max = np.full(n_cols_fine, -np.inf)
    step = _BLOCK_COLUMNS * per_col
    lattice = WLattice(params, phi, col_level, _lattice_shift(seed), tol)
    for start in range(0, total, step):
        stop = min(start + step, total)
        ys = lattice(np.arange(start, stop))
        cols = (stop - start) // per_col
        blk = ys.reshape(cols, per_col)
        c0 = start // per_col
        col_min[c0 : c0 + cols] = blk.min(axis=1)
        col_max[c0 : c0 + cols] = blk.max(axis=1)
    all_levels = list(range(1, n_max + 1))
    counts = []
    mn, mx = col_min, col_max
    for n in reversed(all_levels):  # each coarser level folds b columns of the last
        if n < n_max:
            mn = mn.reshape(-1, params.b).min(axis=1)
            mx = mx.reshape(-1, params.b).max(axis=1)
        scale = float(params.b) ** n
        count = 0
        for a in range(0, len(mn), _BLOCK_COLUMNS):
            sl = slice(a, a + _BLOCK_COLUMNS)
            count += int((np.floor(mx[sl] * scale) - np.floor(mn[sl] * scale) + 1.0).sum())
        counts.insert(0, count)
    logs = [math.log(c) / math.log(params.b) for c in counts]
    curve = _fit_curve(all_levels, logs, levels)
    return BoxDimReport(
        levels=tuple(all_levels),
        counts=tuple(counts),
        log_counts=tuple(logs),
        window=curve.window,
        slope=curve.slope,
        slope_stderr=curve.slope_stderr,
        column_level=col_level,
        n_samples=int(total),
        d_reference=params.dim,
    )


@dataclass
class DimMuReport:
    dim_mu_est: float
    alpha_median: float
    rhs: float
    gap: float
    curve: EntropyCurve


def dim_mu_check(
    params,
    phi: phimod.Phi,
    code_count: int,
    levels: Sequence[int],
    n_samples: int,
    seed: int = 0,
    tol: float = 1e-9,
) -> DimMuReport:
    """Consistency gap between the graph-measure dimension and 1 + (D-1) alpha.

    The left side is the entropy slope of the two-dimensional histogram
    of (x, W(x)); alpha comes from ``alpha_estimate`` over ``code_count``
    seeded codes at the same levels.
    """
    levels = sorted(int(lv) for lv in levels)
    if len(levels) < 2:
        raise ValueError("dim_mu_check needs at least two levels")
    top = levels[-1]
    xs, ys = _lattice_sample(params, phi, _strata_level(params.b, n_samples), seed, tol)
    curve = _entropy_curve(histogram_from_points(xs, ys, params.b, top), levels)
    codes = [seeded_code(params.b, seed, i) for i in range(code_count)]
    alpha = alpha_estimate(params, phi, codes, levels, n_samples, seed, tol)
    rhs = 1.0 + (params.dim - 1.0) * alpha.median
    return DimMuReport(
        dim_mu_est=curve.slope,
        alpha_median=alpha.median,
        rhs=rhs,
        gap=abs(curve.slope - rhs),
        curve=curve,
    )


def n_hat(params, n: int) -> int:
    """Depth at which lam-scale first falls below the b-adic scale b^-n.

    The returned m satisfies lam^m <= b^-n < lam^(m-1).  ``n`` is taken
    through ``operator.index``, so numpy integers are exact and floats or
    bools raise TypeError.  Each comparison b^n lam^m <= 1 is exact
    (``_util._scale_le``): an integer compare of exponents when
    lam = 2^-e and b = 2^k, the only case with ties; otherwise the sign of
    n log b - m log(1/lam) in floats, taken when it clears 2^-50 times
    n log b + m log(1/lam), twice the worst rounding of that difference;
    inside that band the same sign from logs held as integers in units of
    2^-256; and big-integer powers only where even those cannot tell.
    """
    n = depth_index(n, "n")
    return ceil_log_ratio(n, params.b, params.lam)


# ---------------------------------------------------------------------------
# continuity across scales


class _ProratedCdf:
    """Piecewise-linear CDF of a one-dimensional histogram.

    Mass inside each cell spreads uniformly, so interval masses vary
    linearly in the endpoints (the proration of boundary cells).
    """

    def __init__(self, hist: BadicHistogram):
        self.scale = float(hist.b) ** hist.level
        lo = int(hist.keys.min())
        hi = int(hist.keys.max())
        dense = np.zeros(hi - lo + 1)
        dense[hist.keys - lo] = hist.masses / hist.total
        self.lo = lo
        self.cum = np.concatenate([[0.0], np.cumsum(dense)])
        self.dense = dense

    def cdf(self, t: float) -> float:
        u = t * self.scale - self.lo
        if u <= 0.0:
            return 0.0
        if u >= len(self.dense):
            return float(self.cum[-1])
        cell = int(u)
        frac = u - cell
        return float(self.cum[cell] + frac * self.dense[cell])

    def interval_mass(self, a: float, b: float) -> float:
        return max(0.0, self.cdf(b) - self.cdf(a))


@dataclass
class UcasReport:
    sup_ratio: float
    delta: float
    degenerate_atom: bool
    n_ratios: int
    level: int
    meta: dict


def ucas_probe(
    params,
    phi: phimod.Phi,
    codes: Sequence[Code],
    delta: float,
    n_samples: int = 1 << 20,
    seed: int = 0,
    tol: float = 1e-9,
) -> UcasReport:
    """Worst observed ball-mass ratio mass(B(x, delta r)) / mass(B(x, r)).

    The radii r are b^-1 .. b^-4.  Ratios come from a histogram two levels
    finer than the smallest inner radius, with boundary cells prorated
    linearly.  The centers x are 33 quantiles of each projected measure,
    so denominators stay positive; zero-denominator queries are skipped.
    A cell holding most of the mass marks the degenerate atom case (where
    the ratio is pinned at 1).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    r_grid = [float(params.b) ** -k for k in range(1, 5)]
    inner = delta * min(r_grid)
    level = max(1, math.ceil(-math.log(inner) / math.log(params.b))) + 2
    sup = 0.0
    count = 0
    degenerate = False
    for code in codes:
        hist = sample_projected_measure(
            params, phi, code, n_samples, level, seed=seed, tol=tol
        )
        if float(hist.masses.max()) / hist.total > 0.5:
            degenerate = True
        cdf = _ProratedCdf(hist)
        for x in histogram_quantiles(hist, np.linspace(0.02, 0.98, 33)):
            for r in r_grid:
                den = cdf.interval_mass(x - r, x + r)
                if den <= 0.0:
                    continue
                num = cdf.interval_mass(x - delta * r, x + delta * r)
                sup = max(sup, num / den)
                count += 1
    return UcasReport(
        sup_ratio=sup,
        delta=delta,
        degenerate_atom=degenerate,
        n_ratios=count,
        level=level,
        meta={"seed": seed, "n_samples": n_samples, "r_grid": tuple(r_grid)},
    )


@dataclass
class PorosityReport:
    fraction: float
    threshold: float
    per_scale: dict[int, float]
    porous: bool
    delta: float


def porosity_probe(
    params,
    phi: phimod.Phi,
    code: Code,
    h: float,
    delta: float,
    m: int,
    n1: int,
    n2: int,
    level_cap: int = 26,
    n_samples: int = 1 << 20,
    seed: int = 0,
    tol: float = 1e-9,
    hist: BadicHistogram | None = None,
) -> PorosityReport:
    """Mass-weighted frequency of low-entropy components across scales.

    For each scale i in [n1, n2] and each level-i cell, the component
    measure's entropy over the next m levels is compared to m (h +
    delta); the fraction is the average over scales of the mass carried
    by components below the threshold.  A fraction above 1 - delta
    reports the measure as entropy-porous at these parameters.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if n1 > n2 or n1 < 0:
        raise ValueError("need 0 <= n1 <= n2")
    if n2 + m > level_cap:
        raise ValueError("n2 + m exceeds level_cap")
    if hist is None:
        hist = sample_projected_measure(
            params, phi, code, n_samples, n2 + m, seed=seed, tol=tol
        )
    elif hist.level < n2 + m:
        raise ValueError("supplied histogram is too coarse for n2 + m")
    logb = math.log(params.b)
    per_scale: dict[int, float] = {}
    for i in range(n1, n2 + 1):
        fine = coarsen(hist, i + m)
        group = fine.keys // (params.b**m)
        boundary = np.empty(len(group), dtype=bool)
        boundary[0] = True
        np.not_equal(group[1:], group[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        cell_mass = np.add.reduceat(fine.masses, starts)
        plogp = fine.masses * np.log(fine.masses)
        sums = np.add.reduceat(plogp, starts)
        # H(component at L_{i+m}) = log(cell_mass) - sums/cell_mass, in nats
        h_comp = (np.log(cell_mass) - sums / cell_mass) / logb
        event = h_comp / m < h + delta
        per_scale[i] = float(cell_mass[event].sum() / cell_mass.sum())
    fraction = float(np.mean(list(per_scale.values())))
    return PorosityReport(
        fraction=fraction,
        threshold=h + delta,
        per_scale=per_scale,
        porous=fraction > 1.0 - delta,
        delta=delta,
    )
