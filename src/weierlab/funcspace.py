"""Projected-contraction space: coordinates, partitions, theta measures.

Every composition of the flow projection with a word map has the form

    Psi(x, y) = lam^t (y - Gamma_code(x)) + c,

with t the word length, code the reversed word prepended to the base
code, and c the image of the origin.  The coordinate vector (t,
psi(1/M), ..., psi(1), c) with psi = Gamma_code embeds these maps in a
finite-dimensional space, partitioned by b-adic floors; the constant
coordinate is always resolved floor(t log_b(1/lam)) levels deeper than
the psi block, and at the coarsest partition only (t, c) matter.

The discrete measure theta_n places equal weight on all b^m maps of
height m = n_hat(n).  Enumeration is exact (and fully vectorized: the
word with index r has reversed-prefix offsets (r mod b^j) / b^j, so no
per-word loop is ever needed) up to a configurable atom cap, with seeded
subsampling beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import phi as phimod
from ._util import floor_scaled_log, substream
from .kernel import (Code, _y_term_count, apply_word, code_offsets, code_offsets_exact,
                     eval_gamma, eval_gamma_vec)
from .measure import BadicHistogram, entropy, histogram_from_values, n_hat
from .weier import WLattice, eval_w_vec

__all__ = [
    "ContactMap",
    "pibar",
    "q_height",
    "partition_cell",
    "cell_from_coords",
    "ThetaMeasure",
    "build_theta",
    "gamma_at_many_words",
    "theta_cell_labels",
    "ThetaEntropyReport",
    "theta_entropy",
    "theta_cells_csv",
    "SeparationCReport",
    "separation_constant_c",
    "eta_dot",
    "ConvolutionGain",
    "convolution_entropy_gain",
    "EntropyIncreaseReport",
    "entropy_increase_experiment",
    "experiment_to_csv",
]


@dataclass(frozen=True)
class ContactMap:
    """One projected contraction lam^t (y - Gamma_code(x)) + c."""

    params: object
    phi: object
    t: int
    code: Code
    c: float

    def __call__(self, x: float, y: float, tol: float = 1e-10) -> float:
        g = eval_gamma(self.params, self.phi, x, self.code, tol)
        return self.params.lam**self.t * (y - g) + self.c

    def apply_vec(self, xs: np.ndarray, ys: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        g = eval_gamma_vec(self.params, self.phi, np.asarray(xs, dtype=np.float64),
                           self.code, tol)
        return self.params.lam**self.t * (np.asarray(ys, dtype=np.float64) - g) + self.c

    @classmethod
    def from_word(cls, params, phi: phimod.Phi, word: Sequence[int], base_code: Code,
                  tol: float = 1e-10) -> "ContactMap":
        syms = tuple(int(s) for s in word)
        x0, y0 = apply_word(params, phi, syms, 0.0, 0.0)
        c = y0 - eval_gamma(params, phi, x0, base_code, tol)
        return cls(
            params=params,
            phi=phi,
            t=len(syms),
            code=base_code.prepend(tuple(reversed(syms))),
            c=float(c),
        )


def q_height(params, t: int) -> int:
    """Extra resolution floor(t log_b(1/lam)) of the constant coordinate.

    Settled in exact integer arithmetic; ties at integer values of the
    product go downward.
    """
    if t < 0:
        raise ValueError("height must be nonnegative")
    return floor_scaled_log(t, params.b, params.lam)


def _check_m(params, m: int) -> None:
    v = m
    while v > 1 and v % params.b == 0:
        v //= params.b
    if v != 1 or m < 1:
        raise ValueError(f"M must be a power of b = {params.b}, got {m}")


def pibar(cm: ContactMap, m_grid: int, tol: float = 1e-10) -> np.ndarray:
    """Coordinate vector (t, psi(1/M), ..., psi(1), c) with psi = Gamma_code.

    psi(0) = 0 is identically zero and is not a coordinate.  M must be a
    power of b so the grid aligns with every b-adic partition level.
    """
    _check_m(cm.params, m_grid)
    psi = [
        eval_gamma(cm.params, cm.phi, k / m_grid, cm.code, tol)
        for k in range(1, m_grid + 1)
    ]
    return np.array([float(cm.t), *psi, cm.c], dtype=np.float64)


def cell_from_coords(params, t: int, psi_vals: Sequence[float], c: float,
                     i_level: int, m_grid: int) -> tuple[int, ...]:
    """Partition cell id from precomputed coordinates.

    Level i >= 1 takes the b-adic floor of each psi value at level i and
    of c at level i + q(t); level 0 keeps only (t, floor of c at q(t)).
    """
    q = q_height(params, t)
    if i_level == 0:
        return (t, math.floor(c * float(params.b) ** q))
    scale = float(params.b) ** i_level
    cscale = float(params.b) ** (i_level + q)
    return (
        t,
        *(math.floor(v * scale) for v in psi_vals),
        math.floor(c * cscale),
    )


def partition_cell(cm: ContactMap, i_level: int, m_grid: int,
                   tol: float = 1e-10) -> tuple[int, ...]:
    """Cell of the map in the level-``i_level`` partition of map space."""
    _check_m(cm.params, m_grid)
    if i_level == 0:
        return cell_from_coords(cm.params, cm.t, (), cm.c, 0, m_grid)
    coords = pibar(cm, m_grid, tol)
    return cell_from_coords(cm.params, cm.t, coords[1:-1], cm.c, i_level, m_grid)


# ---------------------------------------------------------------------------
# theta measures


@dataclass
class ThetaMeasure:
    """Equal-weight measure on the height-n_hat word maps over a base code.

    Atoms are stored as word indices plus the constant coordinate; full
    ContactMaps materialize on demand.  ``subsampled`` marks a seeded
    uniform subsample used when the exact atom count b^n_hat exceeds the
    cap.
    """

    params: object
    phi: object
    code: Code
    n: int
    n_hat: int
    indices: np.ndarray
    c: np.ndarray
    subsampled: bool

    def __len__(self) -> int:
        return len(self.indices)

    def word(self, i: int) -> tuple[int, ...]:
        idx = int(self.indices[i])
        digits = []
        for _ in range(self.n_hat):
            digits.append(idx % self.params.b)
            idx //= self.params.b
        return tuple(reversed(digits))

    def contact_map(self, i: int) -> ContactMap:
        return ContactMap(
            params=self.params,
            phi=self.phi,
            t=self.n_hat,
            code=self.code.prepend(tuple(reversed(self.word(i)))),
            c=float(self.c[i]),
        )


def _origin_constants(params, phi: phimod.Phi, code: Code, heights: WLattice,
                      idx: np.ndarray, tol: float) -> np.ndarray:
    """c = pi_code(g_word(0, 0)) for all word indices at once.

    The image of the origin under the word with index r is (r / b^width,
    sum_{m < width} lam^m phi(b^m r / b^width mod 1)); that sum is
    ``heights``, the unshifted level-width lattice started from 0.  The
    projection subtracts Gamma at the x image.
    """
    xs = idx.astype(np.float64) / float(params.b) ** heights.level
    return heights(idx) - eval_gamma_vec(params, phi, xs, code, tol)


def build_theta(
    params,
    phi: phimod.Phi,
    code: Code,
    n: int,
    cap: int = 1 << 20,
    subsample: int | None = None,
    seed: int = 0,
    tol: float = 1e-9,
    chunk: int = 1 << 22,
) -> ThetaMeasure:
    """Enumerate (or subsample) the theta measure at index n.

    Raises when b^n_hat exceeds the cap and no subsample size is given.
    """
    nh = n_hat(params, n)
    total = params.b**nh
    if total <= cap:
        indices = np.arange(total, dtype=np.int64)
        sub = False
    elif subsample is None:
        raise ValueError(
            f"b^{nh} = {total} atoms exceed the cap {cap}; pass a subsample size"
        )
    elif total > np.iinfo(np.int64).max:
        raise ValueError(
            f"b^{nh} atoms: word indices past 2^63 - 1 do not fit int64, "
            f"so theta at n = {n} cannot be subsampled; lower n"
        )
    else:
        rng = substream(seed, 0x7E7A)
        draw = rng.integers(0, total, size=int(subsample * 1.2) + 16)
        indices = np.unique(draw)[:subsample].astype(np.int64)
        sub = True
    c = np.empty(len(indices), dtype=np.float64)
    heights = WLattice(params, phi, nh, start=0.0)
    for a in range(0, len(indices), chunk):
        c[a : a + chunk] = _origin_constants(
            params, phi, code, heights, indices[a : a + chunk], tol
        )
    return ThetaMeasure(
        params=params, phi=phi, code=code, n=n, n_hat=nh,
        indices=indices, c=c, subsampled=sub,
    )


def gamma_at_many_words(
    params,
    phi: phimod.Phi,
    x: float,
    idx: np.ndarray,
    width: int,
    base: Code,
    tol: float = 1e-9,
) -> np.ndarray:
    """Gamma(x) along the codes reverse(word) + base, vectorized over words.

    Depth m <= width uses the identity that the reversed prefix of the
    word with index r has value r mod b^m, so the offset array is one
    modulo per depth; deeper offsets shift the shared base-code offsets
    by the full reversed word.  That float sum can round across a
    breakpoint of piecewise data (1 - 2^-60 rounds onto 1), so where it or
    its end lies within rounding of one, the increment is the exact one at
    the exact offset r / b^m + o_(m - width)(base).
    """
    idx = np.asarray(idx, dtype=np.int64)
    if x == 0.0:
        return np.zeros(len(idx), dtype=np.float64)
    n_terms = _y_term_count(params, phi, tol)
    out = np.zeros(len(idx), dtype=np.float64)
    if n_terms == 0:
        return out
    base_offs = code_offsets(base, max(n_terms - width, 0)) if n_terms > width else None
    base_exact = None
    rev_val = idx.astype(np.float64) / float(params.b) ** width
    lam_inv = 1.0 / params.lam
    scale = 1.0
    bm = 1
    for m_depth in range(1, n_terms + 1):
        bm *= params.b
        scale *= lam_inv
        h = x / bm
        if m_depth <= width:
            o = (idx % bm).astype(np.float64) / bm
        else:
            s = m_depth - width
            o = rev_val / float(params.b) ** s + base_offs[s - 1]
        diff = phimod.phi_diff_offsets(phi, o, h)  # by this name: traced as its own layer
        if m_depth > width and isinstance(phi, phimod.PiecewisePhi):
            near = phimod.near_breakpoint(phi, o) | phimod.near_breakpoint(phi, o + h)
            for i in np.flatnonzero(near):
                if base_exact is None:
                    base_exact = code_offsets_exact(base, n_terms - width)
                o_exact = Fraction(int(idx[i]), bm) + base_exact[s - 1]
                diff[i] = float(phimod._piecewise_diff(phi, o_exact, Fraction(x) / bm))
        out -= scale * diff
    return out


def theta_cell_labels(
    theta: ThetaMeasure,
    i_level: int,
    m_grid: int,
    tol: float = 1e-9,
) -> tuple[np.ndarray, int]:
    """Partition-cell label per atom (0 .. n_cells-1) and the cell count.

    The constant coordinate separates almost every pair, so atoms are
    first bucketed by its floor alone; psi coordinates are evaluated only
    for atoms sharing a bucket, which keeps exact enumeration feasible at
    millions of atoms.
    """
    params = theta.params
    _check_m(params, m_grid)
    q = q_height(params, theta.n_hat)
    cscale = float(params.b) ** (i_level + q)
    cmax = float(np.max(np.abs(theta.c))) + 1.0
    if cmax * cscale >= 2.0**62:
        raise ValueError("partition level too deep for exact integer cell keys")
    key_c = np.floor(theta.c * cscale).astype(np.int64)
    uniq, inverse, counts = np.unique(key_c, return_inverse=True, return_counts=True)
    if i_level == 0:
        return inverse, len(uniq)
    collided = counts[inverse] > 1
    n_coll = int(collided.sum())
    if n_coll == 0:
        return inverse, len(uniq)
    sub_idx = theta.indices[collided]
    pscale = float(params.b) ** i_level
    cols = [key_c[collided]]
    for k in range(1, m_grid + 1):
        g = gamma_at_many_words(
            params, theta.phi, k / m_grid, sub_idx, theta.n_hat, theta.code, tol
        )
        cols.append(np.floor(g * pscale).astype(np.int64))
    order = np.lexsort(cols[::-1])
    stacked = np.stack([c[order] for c in cols], axis=1)
    new_group = np.empty(n_coll, dtype=bool)
    new_group[0] = True
    new_group[1:] = np.any(stacked[1:] != stacked[:-1], axis=1)
    group_ids = np.cumsum(new_group) - 1
    labels = np.empty(len(theta.c), dtype=np.int64)
    labels[~collided] = inverse[~collided]
    coll_labels = np.empty(n_coll, dtype=np.int64)
    coll_labels[order] = len(uniq) + group_ids
    labels[collided] = coll_labels
    _, labels = np.unique(labels, return_inverse=True)
    return labels, int(labels.max()) + 1


@dataclass
class ThetaEntropyReport:
    entropy: float
    n: int
    n_hat: int
    i_level: int
    m_grid: int
    n_atoms: int
    n_cells: int
    subsampled: bool


def theta_entropy(
    params,
    phi: phimod.Phi,
    code: Code,
    n: int,
    i_level: int,
    m_grid: int,
    cap: int = 1 << 20,
    subsample: int | None = None,
    seed: int = 0,
    tol: float = 1e-9,
    theta: ThetaMeasure | None = None,
) -> ThetaEntropyReport:
    """Entropy (log base b) of theta_n under the map-space partition.

    A prebuilt theta can be passed to amortize enumeration across
    partition levels.
    """
    if theta is None:
        theta = build_theta(params, phi, code, n, cap, subsample, seed, tol)
    labels, n_cells = theta_cell_labels(theta, i_level, m_grid, tol)
    counts = np.bincount(labels).astype(np.float64)
    counts = counts[counts > 0]
    n_atoms = float(len(theta))
    h = math.log(n_atoms) - float((counts * np.log(counts)).sum()) / n_atoms
    return ThetaEntropyReport(
        entropy=h / math.log(params.b),
        n=theta.n,
        n_hat=theta.n_hat,
        i_level=i_level,
        m_grid=m_grid,
        n_atoms=int(n_atoms),
        n_cells=n_cells,
        subsampled=theta.subsampled,
    )


def theta_cells_csv(theta: ThetaMeasure, i_level: int, m_grid: int,
                    tol: float = 1e-9) -> str:
    """Dump ``word,t,cell_id`` rows; cell ids join their integers with colons."""
    lines = ["word,t,cell_id"]
    for i in range(len(theta)):
        cm = theta.contact_map(i)
        cell = partition_cell(cm, i_level, m_grid, tol)
        word = "".join(map(str, theta.word(i)))
        lines.append(f"{word},{cm.t},{':'.join(map(str, cell))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# separation constant


@dataclass
class SeparationCReport:
    c_value: int | None
    separable: bool
    per_n: dict[int, int]
    failures: list[tuple[int, int, int]]  # (n, word_index_a, word_index_b)
    n_max: int
    m_grid: int


def separation_constant_c(
    params,
    phi: phimod.Phi,
    code: Code,
    n_max: int,
    m_grid: int,
    c_cap: int = 8,
    pair_cap: int = 200_000,
    seed: int = 0,
    tol: float = 1e-10,
) -> SeparationCReport:
    """Smallest C with all same-length word pairs split by level C n cells.

    For each word length n <= n_max, every distinct pair (or a seeded
    subsample when the pair count explodes) is pushed through the
    partition at levels 1, 2, ... until the cells differ; the per-pair
    requirement is ceil(level / n) and C is the worst over all pairs.
    Pairs still unseparated at level c_cap * n are returned as failures
    (the everywhere-degenerate generators have no finite C).
    """
    _check_m(params, m_grid)
    per_n: dict[int, int] = {}
    failures: list[tuple[int, int, int]] = []
    c_val = 1
    for n in range(1, n_max + 1):
        count = params.b**n
        idx = np.arange(count, dtype=np.int64)
        heights = WLattice(params, phi, n, start=0.0)
        cvals = _origin_constants(params, phi, code, heights, idx, tol)
        psi = [
            gamma_at_many_words(params, phi, k / m_grid, idx, n, code, tol)
            for k in range(1, m_grid + 1)
        ]
        q = q_height(params, n)
        n_pairs = count * (count - 1) // 2
        if n_pairs <= pair_cap:
            ia, ib = np.triu_indices(count, k=1)
        else:
            rng = substream(seed, 0x5EF, n)
            ia = rng.integers(0, count, size=pair_cap)
            ib = rng.integers(0, count, size=pair_cap)
            keep = ia != ib
            ia, ib = ia[keep], ib[keep]
        alive = np.ones(len(ia), dtype=bool)
        level_found = np.zeros(len(ia), dtype=np.int64)
        for ell in range(1, c_cap * n + 1):
            if not alive.any():
                break
            cs = float(params.b) ** (ell + q)
            ps = float(params.b) ** ell
            fc = np.floor(cvals * cs).astype(np.int64)
            sep = fc[ia] != fc[ib]
            for g in psi:
                fp = np.floor(g * ps).astype(np.int64)
                sep |= fp[ia] != fp[ib]
            newly = alive & sep
            level_found[newly] = ell
            alive &= ~sep
        if alive.any():
            for j in np.nonzero(alive)[0][:32]:
                failures.append((n, int(ia[j]), int(ib[j])))
            continue
        c_n = int(np.max(-(-level_found // n))) if len(level_found) else 1
        per_n[n] = c_n
        c_val = max(c_val, c_n)
    separable = not failures
    return SeparationCReport(
        c_value=c_val if separable else None,
        separable=separable,
        per_n=per_n,
        failures=failures,
        n_max=n_max,
        m_grid=m_grid,
    )


# ---------------------------------------------------------------------------
# pushforwards and convolution gains


def eta_dot(
    eta: Sequence[tuple[float, ContactMap]],
    target_samples: Sequence[tuple[float, float]],
    level: int,
    tol: float = 1e-10,
) -> BadicHistogram:
    """Histogram of Psi(x, y) over the product of map atoms and samples.

    Weights multiply: each (map weight) x (uniform sample weight).
    """
    if not eta:
        raise ValueError("eta has no atoms")
    params = eta[0][1].params
    xs = np.array([s[0] for s in target_samples], dtype=np.float64)
    ys = np.array([s[1] for s in target_samples], dtype=np.float64)
    if len(xs) == 0:
        raise ValueError("no target samples")
    vals = []
    weights = []
    for w, cm in eta:
        vals.append(cm.apply_vec(xs, ys, tol))
        weights.append(np.full(len(xs), w / len(xs)))
    return histogram_from_values(
        np.concatenate(vals), params.b, level, weights=np.concatenate(weights)
    )


@dataclass
class ConvolutionGain:
    gain: float
    h_conv: float
    h_tau: float
    level: int


def convolution_entropy_gain(
    theta_hist: BadicHistogram,
    tau_hist: BadicHistogram,
    n: int,
    k: int,
    dense_cap: int = 1 << 24,
) -> ConvolutionGain:
    """Entropy gained by convolving theta into tau, per level, at L_{n+k}.

    Both histograms must sit at level n + k with support diameter at most
    b^-n (checked).  The convolution is the exact lattice cell-index sum,
    computed densely, so the gain inherits no sampling error beyond the
    inputs; on the lattice it is never negative and a point-mass theta
    gives exactly zero.
    """
    if k < 1:
        raise ValueError("k must be positive")
    b = theta_hist.b
    for h, name in ((theta_hist, "theta"), (tau_hist, "tau")):
        if h.dim != 1:
            raise ValueError(f"{name} histogram must be one-dimensional")
        if h.level != n + k:
            raise ValueError(f"{name} histogram must be at level n + k = {n + k}")
        span = int(h.keys.max() - h.keys.min())
        if span > b**k:
            raise ValueError(
                f"{name} support spans {span} cells at level {n + k}, "
                f"exceeding the diameter bound b^-n (= {b**k} cells)"
            )
    def dense(h: BadicHistogram) -> np.ndarray:
        lo = int(h.keys.min())
        out = np.zeros(int(h.keys.max()) - lo + 1)
        out[h.keys - lo] = h.masses / h.total
        return out

    dt, dta = dense(theta_hist), dense(tau_hist)
    if len(dt) + len(dta) > dense_cap:
        raise ValueError("convolution support too wide for the dense path")
    conv = np.convolve(dt, dta)
    conv = conv[conv > 1e-300]
    logb = math.log(b)
    h_conv = float(-(conv * np.log(conv)).sum()) / logb
    h_tau = entropy(tau_hist)
    return ConvolutionGain(
        gain=(h_conv - h_tau) / k, h_conv=h_conv, h_tau=h_tau, level=n + k
    )


# ---------------------------------------------------------------------------
# entropy-increase experiment


@dataclass
class EntropyIncreaseReport:
    rows: list[tuple[int, float, float]]  # (component_id, H_eta_rate, gain)
    n: int
    i_level: int
    k: int
    m_grid: int
    n_components: int
    n_processed: int
    n_selected: int
    n_skipped_small: int
    n_below_threshold: int
    positive_fraction: float
    gain_threshold: float
    message: str


def entropy_increase_experiment(
    params,
    phi: phimod.Phi,
    code: Code,
    n: int,
    i_level: int,
    k: int,
    m_grid: int,
    seed: int = 0,
    cap: int = 1 << 20,
    subsample: int | None = None,
    h_threshold: float = 0.1,
    gain_threshold: float = 0.02,
    min_atoms: int = 16,
    n_tau: int = 1 << 15,
    max_components: int | None = None,
    tol: float = 1e-9,
) -> EntropyIncreaseReport:
    """Convolution entropy gains of the partition components of theta_n.

    Components of theta at partition level i whose refinement entropy
    rate (1 / k) H(component, level i + k) clears ``h_threshold`` are the
    (H)-type candidates.  For each one, a line measure (the component's
    maps applied to one seeded word image of the origin) is convolved
    into the pushforward of the graph measure under a representative map
    composed with that word, and the per-level entropy gain recorded.
    Degenerate systems report every gain near zero or no candidates at
    all.
    """
    theta = build_theta(params, phi, code, n, cap, subsample, seed, tol)
    labels_i, n_comp = theta_cell_labels(theta, i_level, m_grid, tol)
    labels_f, _ = theta_cell_labels(theta, i_level + k, m_grid, tol)
    rows: list[tuple[int, float, float]] = []
    below = 0
    order = np.argsort(labels_i, kind="stable")
    sorted_labels = labels_i[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_labels[1:] != sorted_labels[:-1]])
    )
    bounds = np.append(starts, len(sorted_labels))
    sizes = np.diff(bounds)
    eligible = np.flatnonzero(sizes >= min_atoms)
    skipped_small = len(starts) - len(eligible)
    if max_components is not None and len(eligible) > max_components:
        pick = substream(seed, 0xCA9).choice(
            len(eligible), size=max_components, replace=False
        )
        eligible = eligible[np.sort(pick)]
    word_len = max(n, 1)
    for comp_id in eligible:
        members = order[bounds[comp_id] : bounds[comp_id + 1]]
        fine = labels_f[members]
        counts = np.bincount(fine - fine.min()).astype(np.float64)
        counts = counts[counts > 0]
        total = float(len(members))
        h_eta = (
            math.log(total) - float((counts * np.log(counts)).sum()) / total
        ) / math.log(params.b) / k
        if h_eta < h_threshold:
            below += 1
            continue
        rng = substream(seed, 0xE7A, int(comp_id))
        u = tuple(int(s) for s in rng.integers(0, params.b, size=word_len))
        x0, y0 = apply_word(params, phi, u, 0.0, 0.0)
        g0 = gamma_at_many_words(
            params, phi, x0, theta.indices[members], theta.n_hat, code, tol
        )
        line_vals = params.lam**theta.n_hat * (y0 - g0) + theta.c[members]
        rep = theta.contact_map(int(members[0]))
        xs = substream(seed, 0x7A0, int(comp_id)).random(n_tau)
        gx, gy = apply_word(params, phi, u, xs, eval_w_vec(params, phi, xs, tol))
        tau_vals = rep.apply_vec(gx, gy, tol)
        diam = max(
            float(line_vals.max() - line_vals.min()),
            float(tau_vals.max() - tau_vals.min()),
        )
        vmax = max(1.0, float(np.max(np.abs(line_vals))), float(np.max(np.abs(tau_vals))))
        level_cap = int((62 * math.log(2) - math.log(vmax)) / math.log(params.b)) - k - 1
        if diam <= 0.0:
            n_conv = level_cap
        else:
            n_conv = min(int(math.floor(-math.log(diam) / math.log(params.b))), level_cap)
        th = histogram_from_values(line_vals, params.b, n_conv + k)
        ta = histogram_from_values(tau_vals, params.b, n_conv + k)
        gain = convolution_entropy_gain(th, ta, n_conv, k).gain
        rows.append((int(comp_id), float(h_eta), float(gain)))
    pos = sum(1 for _, _, g in rows if g > gain_threshold)
    message = "" if rows else "no (H)-type components"
    return EntropyIncreaseReport(
        rows=rows,
        n=n,
        i_level=i_level,
        k=k,
        m_grid=m_grid,
        n_components=n_comp,
        n_processed=len(eligible),
        n_selected=len(rows),
        n_skipped_small=skipped_small,
        n_below_threshold=below,
        positive_fraction=pos / len(rows) if rows else 0.0,
        gain_threshold=gain_threshold,
        message=message,
    )


def experiment_to_csv(report: EntropyIncreaseReport) -> str:
    lines = ["n,i_level,k,component_id,H_eta,gain"]
    for comp_id, h_eta, gain in report.rows:
        lines.append(
            f"{report.n},{report.i_level},{report.k},{comp_id},{h_eta!r},{gain!r}"
        )
    return "\n".join(lines) + "\n"
