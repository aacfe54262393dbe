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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import phi as phimod
from ._util import depth_index, floor_scaled_log, substream
from .kernel import (_LINEARIZE_BELOW, Code, _block_rows, _piecewise_gamma, _sin_vers,
                     _y_term_count, apply_word, code_offsets, eval_gamma, eval_gamma_vec)
from .measure import BadicHistogram, entropy, histogram_from_values, n_hat
from .weier import WLattice, eval_w_vec

__all__ = [
    "ContactMap",
    "q_height",
    "ThetaMeasure",
    "build_theta",
    "gamma_at_many_words",
    "theta_cell_labels",
    "ThetaEntropyReport",
    "theta_entropy",
    "theta_cells_csv",
    "SeparationCReport",
    "separation_constant_c",
    "ConvolutionGain",
    "convolution_entropy_gain",
    "EntropyIncreaseReport",
    "entropy_increase_experiment",
    "experiment_to_csv",
]

_THETA_CHUNK = 1 << 22  # atoms per pass over the origin constants of build_theta
_C_CAP = 8  # the largest separation constant tried: a pair apart only past level 8 n fails
_PAIR_CAP = 200_000  # word pairs per length beyond which a seeded subsample is drawn
_GAIN_THRESHOLD = 0.02  # a convolution gain above this counts as positive
_MIN_ATOMS = 16  # smallest component the entropy-increase experiment takes
_TOO_DEEP = "partition level too deep for exact integer cell keys"


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

    The largest q with b^q lam^t <= 1, so ties at integer values of
    t log_b(1/lam) go to that integer.  ``t`` is taken through
    ``operator.index``: numpy integers are exact, floats and bools raise
    TypeError.  Each comparison is exact, as in ``measure.n_hat``: integer
    exponents where ties can happen, otherwise a float log difference
    whose sign is taken outside a band of 2^-50 (q log b + t log(1/lam)),
    inside it fixed-point logs in units of 2^-256, and big-integer powers
    only where those cannot tell.
    """
    t = depth_index(t, "height")
    return floor_scaled_log(t, params.b, params.lam)


def _check_m(params, m: int) -> None:
    v = m
    while v > 1 and v % params.b == 0:
        v //= params.b
    if v != 1 or m < 1:
        raise ValueError(f"M must be a power of b = {params.b}, got {m}")


# ---------------------------------------------------------------------------
# theta measures


@dataclass
class ThetaMeasure:
    """Equal-weight measure on the height-n_hat word maps over a base code.

    Atoms are stored as word indices plus the constant coordinate; full
    ContactMaps materialize on demand.  ``order`` is ``np.argsort(c)``,
    taken once at construction: every partition level buckets the atoms
    by floors of c, which are runs in this order.  ``subsampled`` marks a
    seeded uniform subsample used when the exact atom count b^n_hat
    exceeds the cap.
    """

    params: object
    phi: object
    code: Code
    n: int
    n_hat: int
    indices: np.ndarray
    c: np.ndarray
    subsampled: bool
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.order = np.argsort(self.c)

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
        draw = np.sort(rng.integers(0, total, size=int(subsample * 1.2) + 16))
        distinct = np.concatenate(([True], draw[1:] != draw[:-1]))
        indices = draw[distinct][:subsample].astype(np.int64)  # np.unique(draw), sooner
        sub = True
    c = np.empty(len(indices), dtype=np.float64)
    heights = WLattice(params, phi, nh, start=0.0)
    for a in range(0, len(indices), _THETA_CHUNK):
        c[a : a + _THETA_CHUNK] = _origin_constants(
            params, phi, code, heights, indices[a : a + _THETA_CHUNK], tol
        )
    return ThetaMeasure(
        params=params, phi=phi, code=code, n=n, n_hat=nh,
        indices=indices, c=c, subsampled=sub,
    )


def gamma_at_many_words(
    params,
    phi: phimod.Phi,
    x,
    idx: np.ndarray,
    width: int,
    base: Code,
    tol: float = 1e-9,
) -> np.ndarray:
    """Gamma(x) along the codes reverse(word) + base, for every word index
    and every point of ``x``; shape (len(idx),) + np.shape(x).

    Depth m <= width uses the identity that the reversed prefix of the
    word with index r has value r mod b^m, so the depths down to m add up
    to a function G_m of r mod b^m alone.  While b^m <= len(idx), G_m is
    a table over all b^m residues, climbed from the one above it:

        G_m[r] = G_(m-1)[r mod b^(m-1)] - lam^-m phi(r / b^m + x / b^m) + lam^-m phi(r / b^m),

    the increment taken by the stable ``phi_diff_vec``; the words then
    gather G at idx mod b^m once, and any shallow depths left run per
    word.  Each element sees the float operations of a per-word sweep in
    the same order, so the table changes no bit.  Deeper offsets m =
    width + s are u / b^s + o_s(base) with u = r / b^width.  For a real
    Fourier generator those depths are the product E(u) @ C(x) of
    ``_deep_word_depths``: E depends on the words only, so all points
    share it.  Its depths with 2 pi k / b^s < 2^-24 keep alpha_s to first
    order, an error of at most 2^-48 sum_k 2 pi k |w_k| |x| gamma^(width+1)
    / (1 - gamma) beyond the scalar ``eval_gamma``'s rounding.  Piecewise
    data take every depth from ``kernel._piecewise_gamma``, on the exact
    integer offsets, and are exact to rounding.
    """
    idx = np.asarray(idx, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    xv = x.reshape(-1, 1)
    n_terms = _y_term_count(params, phi, tol)
    if isinstance(phi, phimod.PiecewisePhi):
        out = _piecewise_gamma(params, phi, x.ravel(), idx, width, base, n_terms)
        return out.T.reshape(idx.shape + x.shape)
    b = params.b
    shallow = min(width, n_terms)  # b^m <= b^width < 2^63: all in float range
    lam_inv = 1.0 / params.lam
    scale = 1.0
    bm = 1
    table = np.zeros((len(xv), 1))  # one row per point: long rows for numpy's loops
    m = 0
    while m < shallow and bm * b <= len(idx):
        bm *= b
        scale *= lam_inv
        m += 1
        o = np.arange(bm, dtype=np.float64) / bm
        d = phimod.phi_diff_offsets(phi, o, xv / bm)  # by this name: traced as its own layer
        table = np.tile(table, b) - scale * d
    out = table[:, idx % bm]
    for _ in range(m, shallow):
        bm *= b
        scale *= lam_inv
        o = (idx % bm).astype(np.float64) / bm
        out -= scale * phimod.phi_diff_offsets(phi, o, xv / bm)
    if n_terms > width:
        base_offs = code_offsets(base, n_terms - width)
        rev_val = idx.astype(np.float64) / float(b) ** width
        out += _deep_word_depths(params, phi, xv[:, 0], rev_val, width, base_offs)
    return out.T.reshape(idx.shape + x.shape)


def _deep_word_depths(params, phi: phimod.FourierPhi, xs: np.ndarray, u: np.ndarray,
                      width: int, base_offs: np.ndarray) -> np.ndarray:
    """The depths m = width + s > width of Gamma(xs) along reverse(word) + base
    for a real Fourier generator, shape (len(xs), len(u)).

    With alpha_s = 2 pi k u / b^s and R = lam^-m w_k e^{2 pi i k o_s(base)}
    (e^{2 pi i k x / b^m} - 1), w_k from the generator, frequency k adds
    -Re(R e^{i alpha_s}) = -Re R + Re R (1 - cos alpha_s) + Im R sin alpha_s.
    So the sum is E(u) @ C(xs): E holds 1, u and, per frequency, the
    versines and sines of alpha_s from ``kernel._sin_vers``; C holds R per
    point.  A depth with 2 pi k / b^s < 2^-24 keeps only the first-order
    sin alpha_s = alpha_s, so it joins the column u.  E is built in row
    blocks of about 4 MB and shared by every point.
    """
    b = params.b
    s = np.arange(1, len(base_offs) + 1)
    bneg = float(b) ** -(width + s)[:, None]  # b^-m, zero below float range
    c_rows, freqs = [np.zeros(len(xs)), np.zeros(len(xs))], []
    for k, wk in zip(phi.freqs, phi.w):
        t = k * xs * bneg
        # lam^-m (e^{2 pi i t} - 1) = 2 pi k x gamma^m (i sinc(2t) - sin(pi t) sinc(t))
        r = ((2.0 * math.pi * k * wk * np.exp(2j * math.pi * k * base_offs)
              * params.gamma ** (width + s))[:, None]
             * xs * (1j * np.sinc(2.0 * t) - np.sin(math.pi * t) * np.sinc(t)))
        slope = 2.0 * math.pi * k * float(b) ** -s  # alpha_s / u
        rows = int(np.sum(slope >= _LINEARIZE_BELOW))
        c_rows[0] -= r.real.sum(axis=0)
        c_rows[1] += slope[rows:] @ r.imag[rows:]
        c_rows += [*r.real[:rows], *r.imag[:rows]]
        freqs.append((rows, slope[rows - 1] if rows else 0.0))
    cmat = np.array(c_rows)
    out = np.empty((len(xs), len(u)))
    block = _block_rows(len(cmat))
    e_buf = np.empty((len(cmat), min(block, len(u))))
    for a in range(0, len(u), block):
        ub = u[a:a + block]
        e = e_buf[:, :len(ub)]
        e[0] = 1.0
        e[1] = ub
        row = 2
        for rows, deepest in freqs:
            if rows:
                _sin_vers(deepest * ub, b, e[row + rows:row + 2 * rows], e[row:row + rows])
            row += 2 * rows
        out[:, a:a + block] = cmat.T @ e
    return out


def theta_cell_labels(
    theta: ThetaMeasure,
    i_level: int,
    m_grid: int,
    tol: float = 1e-9,
) -> tuple[np.ndarray, int]:
    """Partition-cell label per atom (0 .. n_cells-1) and the cell count.

    The constant coordinate separates almost every pair, so atoms are
    first bucketed by its floor alone: floor(c b^(i+q)) is monotone in c,
    so the buckets are runs of theta's atoms in c order.  psi coordinates
    are evaluated only for atoms sharing a bucket, which keeps exact
    enumeration feasible at millions of atoms.  Singleton buckets take
    the first labels, in key order; then the cells of the shared buckets,
    in lexicographic order of (key, psi(1/M) floor, ..., psi(1) floor).
    No label depends on the order among atoms of equal c.  ``i_level`` is
    taken through ``_util.depth_index``: a negative level raises ValueError.
    """
    params = theta.params
    i_level = depth_index(i_level, "i_level")
    _check_m(params, m_grid)
    q = q_height(params, theta.n_hat)
    cscale = float(params.b) ** (i_level + q)
    cmax = float(np.max(np.abs(theta.c))) + 1.0
    if cmax * cscale >= 2.0**62:
        raise ValueError(_TOO_DEEP)
    first = _bucket_starts(theta, cscale)
    shared = ~first  # the atom shares the bucket of the one before it ...
    shared[:-1] |= ~first[1:]  # ... or of the one after it
    if i_level == 0 or not shared.any():
        labels = np.empty(len(first), dtype=np.int64)
        labels[theta.order] = np.cumsum(first)
        labels -= 1
        return labels, int(np.count_nonzero(first))
    pos = np.flatnonzero(shared)
    group = np.cumsum(first[pos]) - 1  # shared bucket per atom, in key order
    n_groups = int(group[-1]) + 1
    n_single = len(first) - len(pos)
    atoms = theta.order[pos]
    pscale = float(params.b) ** i_level
    grid = np.arange(1, m_grid + 1) / m_grid
    psi = gamma_at_many_words(params, theta.phi, grid, theta.indices[atoms], theta.n_hat,
                              theta.code, tol)
    if float(np.max(np.abs(psi))) * pscale >= 2.0**62:
        raise ValueError(_TOO_DEEP)
    for col in np.floor(psi * pscale).astype(np.int64).T:
        group, n_groups = _refine_groups(group, n_groups, col)
    by_rank = np.cumsum(~shared)
    by_rank -= 1  # singletons: their rank among singletons
    by_rank[pos] = n_single + group
    labels = np.empty_like(by_rank)
    labels[theta.order] = by_rank
    return labels, n_single + n_groups


def _bucket_starts(theta: ThetaMeasure, cscale: float) -> np.ndarray:
    """Whether each atom, in c order, opens a bucket of floor(c cscale)."""
    key = np.floor(theta.c[theta.order] * cscale).astype(np.int64)  # non-decreasing
    return np.concatenate(([True], key[1:] != key[:-1]))


def _refine_groups(group: np.ndarray, n_groups: int, col: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the pairs (group, col) in lexicographic order, by one
    argsort of the packed key group * span + (col - min col), and their
    count."""
    lo = int(col.min())
    span = int(col.max()) - lo + 1
    if n_groups * span >= 2**62:
        raise ValueError(_TOO_DEEP)
    key = group * span + (col - lo)
    order = np.argsort(key)
    sk = key[order]
    new = np.concatenate(([False], sk[1:] != sk[:-1]))
    ranks = np.empty_like(key)
    ranks[order] = np.cumsum(new)
    return ranks, int(new.sum()) + 1


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
    seed: int = 0,
    tol: float = 1e-9,
    theta: ThetaMeasure | None = None,
) -> ThetaEntropyReport:
    """Entropy (log base b) of theta_n under the map-space partition.

    A prebuilt theta can be passed to amortize enumeration across
    partition levels, or to use a subsampled one.
    """
    if theta is None:
        theta = build_theta(params, phi, code, n, cap, seed=seed, tol=tol)
    labels, n_cells = theta_cell_labels(theta, i_level, m_grid, tol)
    return _entropy_report(theta, labels, n_cells, i_level, m_grid)


def _entropy_report(theta: ThetaMeasure, labels: np.ndarray, n_cells: int, i_level: int,
                    m_grid: int) -> ThetaEntropyReport:
    """The report of ``theta_entropy`` from the cell labels of theta's atoms."""
    counts = np.bincount(labels).astype(np.float64)
    counts = counts[counts > 0]
    n_atoms = float(len(theta))
    h = math.log(n_atoms) - float((counts * np.log(counts)).sum()) / n_atoms
    return ThetaEntropyReport(
        entropy=h / math.log(theta.params.b),
        n=theta.n,
        n_hat=theta.n_hat,
        i_level=i_level,
        m_grid=m_grid,
        n_atoms=int(n_atoms),
        n_cells=n_cells,
        subsampled=theta.subsampled,
    )


def theta_cells_csv(theta: ThetaMeasure, labels: np.ndarray) -> str:
    """Dump ``word,t,cell_id`` rows, one per atom; cell_id is the atom's
    label from ``theta_cell_labels``, 0 .. n_cells - 1.  The word is its
    n_hat base-b digits, most significant first, each printed in decimal.
    The digits are numpy string arrays, one per position, joined in pairs."""
    b = theta.params.b
    symbols = np.array([str(k) for k in range(b)])
    rest = theta.indices.copy()
    parts = []
    for _ in range(theta.n_hat):
        parts.insert(0, symbols[rest % b])
        rest //= b
    parts = parts or [np.zeros(len(theta), "U1")]
    while len(parts) > 1:  # in pairs, so most joins act on short strings
        pairs = [np.strings.add(u, v) for u, v in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[2 * len(pairs):]
    t = theta.n_hat
    rows = (f"{w},{t},{label}" for w, label in zip(parts[0].tolist(), labels.tolist()))
    return "\n".join(["word,t,cell_id", *rows]) + "\n"


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
    seed: int = 0,
    tol: float = 1e-10,
) -> SeparationCReport:
    """Smallest C with all same-length word pairs split by level C n cells.

    For each word length n <= n_max, every distinct pair (or a seeded
    subsample of 200,000 when there are more) is pushed through the
    partition at levels 1, 2, ... until the cells differ; the per-pair
    requirement is ceil(level / n) and C is the worst over all pairs.
    Pairs still unseparated at level 8 n are returned as failures
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
        psi = gamma_at_many_words(params, phi, np.arange(1, m_grid + 1) / m_grid,
                                  idx, n, code, tol).T
        q = q_height(params, n)
        n_pairs = count * (count - 1) // 2
        if n_pairs <= _PAIR_CAP:
            ia, ib = np.triu_indices(count, k=1)
        else:
            rng = substream(seed, 0x5EF, n)
            ia = rng.integers(0, count, size=_PAIR_CAP)
            ib = rng.integers(0, count, size=_PAIR_CAP)
            keep = ia != ib
            ia, ib = ia[keep], ib[keep]
        alive = np.ones(len(ia), dtype=bool)
        level_found = np.zeros(len(ia), dtype=np.int64)
        for ell in range(1, _C_CAP * n + 1):
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
# convolution gains


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
    n_tau: int = 1 << 15,
    max_components: int | None = None,
    tol: float = 1e-9,
) -> EntropyIncreaseReport:
    """Convolution entropy gains of the partition components of theta_n.

    Components of at least 16 atoms of theta at partition level i whose
    refinement entropy rate (1 / k) H(component, level i + k) clears
    ``h_threshold`` are the (H)-type candidates.  For each one, a line
    measure (the component's maps applied to one seeded word image of the
    origin) is convolved into the pushforward of the graph measure under a
    representative map composed with that word, and the per-level entropy
    gain recorded.  Degenerate systems report every gain near zero or no
    candidates at all.
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
    eligible = np.flatnonzero(sizes >= _MIN_ATOMS)
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
    pos = sum(1 for _, _, g in rows if g > _GAIN_THRESHOLD)
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
        gain_threshold=_GAIN_THRESHOLD,
        message=message,
    )


def experiment_to_csv(report: EntropyIncreaseReport) -> str:
    lines = ["n,i_level,k,component_id,H_eta,gain"]
    for comp_id, h_eta, gain in report.rows:
        lines.append(
            f"{report.n},{report.i_level},{report.k},{comp_id},{h_eta!r},{gain!r}"
        )
    return "\n".join(lines) + "\n"
