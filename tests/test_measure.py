"""Histograms, entropy identities, dimension estimators, and scale probes."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weierlab._util as _util
import weierlab.funcspace as F
import weierlab.measure as M
import weierlab.phi as P
from weierlab import make_params
from weierlab.kernel import periodic_code, seeded_code

import oracle


def _p2():
    return make_params(2, 0.7)


def test_histogram_wide_range_takes_cell_indices_once(monkeypatch):
    """A range too wide to count densely falls back to sorting the same
    cell indices: they are computed once, not again for the fallback."""
    calls = []

    def counted(values, b, level):
        calls.append(len(values))
        return cell_indices(values, b, level)

    cell_indices = M._cell_indices
    monkeypatch.setattr(M, "_cell_indices", counted)
    h = M.histogram_from_values(np.array([0.5, 1e6, 0.5]), 2, 10)
    assert calls == [3]
    assert h.keys.tolist() == [512, 1024000000]
    assert h.masses.tolist() == [2.0, 1.0]


def test_histogram_from_values_exact_cells():
    h = M.histogram_from_values(np.array([0.1, 0.3, 0.3, 0.9]), 2, 2)
    assert h.keys.tolist() == [0, 1, 3]
    assert h.masses.tolist() == [1.0, 2.0, 1.0]
    assert h.total == 4.0
    assert h.n_cells == 3


def test_histogram_negative_values():
    h = M.histogram_from_values(np.array([-0.3, 0.6]), 2, 1)
    assert h.keys.tolist() == [-1, 1]
    assert M.hist_to_text(h).splitlines()[0] == "1 1 -1 1"


def test_histogram_weighted_matches_counting():
    vals = np.array([0.1, 0.3, 0.3, 0.9])
    a = M.histogram_from_values(vals, 2, 2)
    b = M._pack_histogram(2, 2, M._cell_indices(vals, 2, 2), np.ones(4))
    assert a.keys.tolist() == b.keys.tolist()
    assert a.masses.tolist() == b.masses.tolist()


def test_histogram_guards():
    with pytest.raises(ValueError, match="overflow"):
        M.histogram_from_values(np.array([1e20]), 2, 40)
    with pytest.raises(ValueError, match="non-finite"):
        M.histogram_from_values(np.array([0.5, np.nan]), 2, 3)
    with pytest.raises(ValueError, match="zero total mass"):
        M._pack_histogram(2, 3, np.array([4]), np.array([0.0]))
    with pytest.raises(ValueError):
        M.histogram_from_values(np.array([]), 2, 3)


def test_cell_counts_grow_and_reject_non_finite_blocks():
    """Blocks that widen the range either way pack to the one-shot
    histogram; a NaN block fails the overflow guard of its cell indices; a
    range past max(4 n, 2^22) cells stops the dense counts."""
    blocks = [np.array([0.30, 0.41]), np.array([-0.52, 0.33]), np.array([1.9, 0.3])]
    counts = M._CellCounts(2, 5, 6)
    assert all(counts.add(M._cell_indices(v, 2, 5)) for v in blocks)
    whole = M.histogram_from_values(np.concatenate(blocks), 2, 5)
    packed = counts.histogram()
    assert packed.keys.tolist() == whole.keys.tolist()
    assert packed.masses.tolist() == whole.masses.tolist()
    with pytest.raises(ValueError, match="non-finite"):
        M._cell_indices(np.array([0.2, np.nan]), 2, 5)
    assert not M._CellCounts(2, 30, 4).add(M._cell_indices(np.array([0.0, 0.9]), 2, 30))


def test_entropy_exact_values():
    """Uniform over b^k cells scores k in base b; an atom scores zero."""
    u = M.histogram_from_values(np.arange(8) / 8 + 1e-3, 2, 3)
    assert M.entropy(u) == pytest.approx(3.0, abs=1e-13)
    atom = M.histogram_from_values(np.full(5, 0.3), 2, 4)
    assert M.entropy(atom) == 0.0
    skew = M.histogram_from_values(np.array([0.1, 0.3, 0.3, 0.9]), 2, 2)
    assert M.entropy(skew) == pytest.approx(1.5, abs=1e-13)
    assert M.entropy(skew) == pytest.approx(
        oracle.shannon_entropy_counts([1, 2, 1], 2), abs=1e-13
    )


def test_coarsen_matches_direct_binning():
    """For base 2 the scaling is exact, so coarsening commutes with binning."""
    rng = np.random.default_rng(3)
    vals = rng.random(5000)
    fine = M.histogram_from_values(vals, 2, 8)
    coarse = M.coarsen(fine, 3)
    direct = M.histogram_from_values(vals, 2, 3)
    assert coarse.keys.tolist() == direct.keys.tolist()
    assert coarse.masses.tolist() == direct.masses.tolist()
    assert coarse.total == fine.total
    with pytest.raises(ValueError):
        M.coarsen(coarse, 4)


def test_component_mixture_chain_rule():
    """H(fine) = H(coarse) + sum_c p_c H(component_c), to rounding."""
    rng = np.random.default_rng(5)
    vals = rng.random(2000)
    w = rng.random(2000) + 0.1
    h = M._pack_histogram(2, 6, M._cell_indices(vals, 2, 6), w)
    coarse = M.coarsen(h, 2)
    total = M.entropy(coarse)
    for key, mass in zip(coarse.keys, coarse.masses):
        comp = M.component_measure(h, 2, int(key))
        assert comp.total == pytest.approx(1.0, abs=1e-12)
        total += (mass / coarse.total) * M.entropy(comp)
    assert total == pytest.approx(M.entropy(h), abs=1e-12)


def test_component_missing_cell():
    h = M.histogram_from_values(np.array([0.1]), 2, 3)
    with pytest.raises(ValueError, match="no mass"):
        M.component_measure(h, 1, 1)


def test_histogram_quantiles():
    h = M.histogram_from_values(np.array([0.1, 0.9]), 2, 2)
    q = M.histogram_quantiles(h, [0.25, 1.0])
    assert q.tolist() == [0.125, 0.875]


def test_hist_text_roundtrip():
    rng = np.random.default_rng(9)
    h1 = M._pack_histogram(2, 6, M._cell_indices(rng.random(300), 2, 6), rng.random(300))
    back = M.hist_from_text(M.hist_to_text(h1), 2)
    assert back.keys.tolist() == h1.keys.tolist()
    assert np.allclose(back.masses, h1.masses, rtol=0, atol=0)


def test_hist_from_text_skips_comments():
    text = "# preamble\n1 3 0 1\n2 1.5\n5 0.5\n"
    h = M.hist_from_text(text, 2)
    assert h.keys.tolist() == [2, 5]
    assert h.total == pytest.approx(2.0)


def test_stratified_x_sharding_invariance():
    full = M.stratified_x(1 << 10, 0, 1 << 10, seed=4)
    a = M.stratified_x(1 << 10, 0, 300, seed=4)
    b = M.stratified_x(1 << 10, 300, 1 << 10, seed=4)
    assert np.array_equal(np.concatenate([a, b]), full)
    idx = np.arange(1 << 10)
    assert np.all(full >= idx / (1 << 10)) and np.all(full < (idx + 1) / (1 << 10))


def test_sample_projected_measure_deterministic():
    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 0)
    h1 = M.sample_projected_measure(p, cos, code, 1 << 10, 6, seed=3)
    h2 = M.sample_projected_measure(p, cos, code, 1 << 10, 6, seed=3)
    assert h1.keys.tolist() == h2.keys.tolist()
    assert h1.masses.tolist() == h2.masses.tolist()
    assert h1.n_cells > 8


def test_alpha_estimate_small_run():
    """Seeded codes give alpha slopes near 1 already at modest depth."""
    p = _p2()
    cos = P.cos_phi()
    codes = [seeded_code(2, 0, i) for i in range(3)]
    rep = M.alpha_estimate(p, cos, codes, levels=range(4, 9), n_samples=1 << 13)
    assert len(rep.alphas) == 3
    assert 0.85 <= rep.median <= 1.05
    assert rep.iqr < 0.2
    for curve in rep.curves:
        vals = np.array(curve.values)
        assert np.all(np.diff(vals) >= -1e-12)
        assert set(curve.window) == set(range(4, 9))


@pytest.mark.parametrize("b, lam, phi, n", [
    (2, 0.7, P.cos_phi(), 1 << 13),
    (2, 0.7, P.cos_phi(), 1 << 15),  # four row blocks of the cosine's Gamma
    (3, 0.5, P.cos_phi(0.3), 3**8),
    (3, 0.5, P.triangle_phi(), 3**8),
])
def test_alpha_estimate_equals_per_code_histograms(b, lam, phi, n):
    """Counting every code's cells block by block gives exactly the slopes
    of one histogram of W - Gamma per code, with W from the sampling lattice."""
    from weierlab.kernel import eval_gamma_vec
    from weierlab.weier import WLattice

    p = make_params(b, lam)
    levels = range(3, 9)
    codes = [seeded_code(b, 4, i) for i in range(4)] + [periodic_code(b, (1,), (0,))]
    rep = M.alpha_estimate(p, phi, codes, levels, n, seed=9)
    xs = M.stratified_x(n, 0, n, 9)
    level = round(math.log(n, b))
    w = WLattice(p, phi, level, M._lattice_shift(9), 1e-9)(np.arange(n))
    ref = [M._entropy_curve(M.histogram_from_values(
        w - eval_gamma_vec(p, phi, xs, code, 1e-9), b, 8), levels).slope for code in codes]
    assert rep.alphas == tuple(ref)


def test_alpha_estimate_needs_two_levels():
    p = _p2()
    with pytest.raises(ValueError):
        M.alpha_estimate(p, P.cos_phi(), [seeded_code(2, 0)], [5], 100)


def test_box_dimension_constant_wave_is_one():
    """A constant graph meets exactly one box per column at every level."""
    p = _p2()
    rep = M.graph_box_dimension(p, P.const_phi(0.4), levels=(2, 6), n_samples=1 << 8)
    assert rep.slope == pytest.approx(1.0, abs=1e-12)
    assert rep.counts == tuple(2**n for n in range(1, 7))


def test_box_dimension_rough_wave_small_run():
    p = _p2()
    rep = M.graph_box_dimension(p, P.cos_phi(), levels=range(3, 9), n_samples=1 << 14)
    assert rep.d_reference == pytest.approx(p.dim)
    assert 1.2 < rep.slope < 1.7
    assert all(c2 > c1 for c1, c2 in zip(rep.counts, rep.counts[1:]))
    assert rep.column_level >= 8 + 3


@pytest.mark.parametrize("table", [1 << 4, 1 << 8, 1 << 22], ids=["wide", "past", "resident"])
@pytest.mark.parametrize("phi", [P.cos_phi(), P.triangle_phi()], ids=["cos", "triangle"])
def test_box_counts_from_lattice_blocks(table, phi, monkeypatch):
    """The column extremes read from ``WLattice.block`` give the counts of a
    direct reduction over the recursion's values, whether the lattice is all
    table, reaches 2 levels past it, or has columns of 2^7 points wider than
    the table's 2^4 (extremes at level 6, folded to the window's 3)."""
    import weierlab.weier as W

    p, seed = _p2(), 3
    monkeypatch.setattr(W, "_LATTICE_TABLE", table)
    rep = M.graph_box_dimension(p, phi, levels=(1, 3), n_samples=1 << 10, seed=seed)
    monkeypatch.setattr(W, "_LATTICE_TABLE", 1)
    w = W.WLattice(p, phi, 10, M._lattice_shift(seed), 1e-9)(np.arange(1 << 10))
    ref = []
    for n in (1, 2, 3):
        cols = w.reshape(1 << n, -1)
        ref.append(int((np.floor(cols.max(axis=1) * 2**n)
                        - np.floor(cols.min(axis=1) * 2**n) + 1).sum()))
    assert rep.column_level == 10 and rep.n_samples == 1 << 10
    assert rep.counts == tuple(ref)


def test_estimators_refuse_sample_counts_below_one():
    """No samples used to give a slope of -0.1620 from one lattice column
    (``graph_box_dimension``) and an alpha of 0 (``alpha_estimate``)."""
    p, cos = _p2(), P.cos_phi()
    for n_samples in (0, -4):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            M.graph_box_dimension(p, cos, levels=range(3, 7), n_samples=n_samples,
                                  column_margin=0)
        with pytest.raises(ValueError, match="n_samples must be positive"):
            M.alpha_estimate(p, cos, [seeded_code(2, 0)], range(4, 8), n_samples)
        with pytest.raises(ValueError, match="n_samples must be positive"):
            M.dim_mu_check(p, cos, 2, range(4, 8), n_samples)


def test_estimators_refuse_levels_below_one_before_sampling(monkeypatch):
    """A window reaching below level 1 used to be fitted over levels 1 ..
    top only, silently.  All three estimators refuse it, and a window of
    one level, before any point is sampled."""
    sampled = []
    monkeypatch.setattr(M, "WLattice", lambda *a, **k: sampled.append(a))
    p, cos = _p2(), P.cos_phi()
    for levels in (range(-2, 5), range(0, 5)):
        with pytest.raises(ValueError, match="graph_box_dimension levels must be at least 1"):
            M.graph_box_dimension(p, cos, levels, n_samples=100)
        with pytest.raises(ValueError, match="alpha_estimate levels must be at least 1"):
            M.alpha_estimate(p, cos, [seeded_code(2, 0)], levels, 100)
        with pytest.raises(ValueError, match="dim_mu_check levels must be at least 1"):
            M.dim_mu_check(p, cos, 2, levels, 100)
    for fn, args in ((M.graph_box_dimension, ()), (M.alpha_estimate, ([seeded_code(2, 0)],)),
                     (M.dim_mu_check, (2,))):
        with pytest.raises(ValueError, match="needs at least two levels"):
            fn(p, cos, *args, [4], 100)
    assert sampled == []


def test_box_dimension_refuses_a_negative_column_margin():
    """A negative margin used to fail on a float column count (-3), or to
    count columns with nothing but the requested samples (-20)."""
    p, cos = _p2(), P.cos_phi()
    for margin in (-3, -20):
        with pytest.raises(ValueError, match="column_margin must be nonnegative"):
            M.graph_box_dimension(p, cos, levels=range(3, 7), n_samples=100,
                                  column_margin=margin)
    with pytest.raises(TypeError):
        M.graph_box_dimension(p, cos, levels=range(3, 7), n_samples=100, column_margin=1.5)


def test_dim_mu_check_consistency():
    """The 2d entropy slope, with enough samples per occupied square, sits
    near 1 + (D - 1) alpha."""
    p = _p2()
    rep = M.dim_mu_check(p, P.cos_phi(), code_count=3, levels=range(3, 8),
                         n_samples=1 << 16)
    assert rep.rhs == pytest.approx(1.0 + (p.dim - 1.0) * rep.alpha_median, abs=1e-12)
    assert rep.gap == pytest.approx(abs(rep.dim_mu_est - rep.rhs), abs=1e-12)
    assert 1.2 < rep.dim_mu_est < 1.7


@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.6)])
def test_dim_mu_curve_is_the_square_count_entropy(b, lam):
    """The graph-measure entropies of ``dim_mu_check`` are, bit for bit, the
    entropies of the lattice sample's counts in level-n squares, listed in
    sorted order of the squares."""
    p = make_params(b, lam)
    cos = P.cos_phi()
    rep = M.dim_mu_check(p, cos, code_count=2, levels=range(3, 7), n_samples=1 << 12, seed=1)
    xs, ys = M._lattice_sample(p, cos, M._strata_level(b, 1 << 12), 1, 1e-9)
    assert rep.curve.levels == tuple(range(1, 7))
    for lv, value in zip(rep.curve.levels, rep.curve.values):
        counts = np.asarray(oracle.square_counts(xs, ys, b, lv), dtype=np.float64)
        assert value == M.entropy(M._pack_histogram(b, lv, np.arange(len(counts)), counts))


def test_n_hat_double_inequality():
    """lam^m <= b^-n < lam^(m-1), verified in exact rational arithmetic.

    For the last three pairs lam^m == b^-n exactly whenever n log_b(1/lam)
    is an integer, so a misrounded float log shows there."""
    pairs = [(2, 0.7), (2, 0.51), (3, 0.34), (3, 0.9), (5, 0.21),
             (4, 0.5), (8, 0.25), (32, 0.0625)]
    for b, lam in pairs:
        p = make_params(b, lam)
        lam_q = Fraction(lam)
        for n in range(201):
            m = M.n_hat(p, n)
            target = Fraction(1, b**n)
            if n == 0:
                assert m == 0
                continue
            assert lam_q**m <= target
            assert lam_q ** (m - 1) > target


# lam = 2^-e with b = 2^k (ties b^q lam^t = 1), no tie near, and lam
# within rounding of b^(-j/k), where the float log test is inconclusive;
# at (5, 5^(-2/3)) a float sign taken without the margin is wrong from n = 2
_DEPTH_PAIRS = [(4, 0.5), (8, 0.25), (32, 0.0625),
                (2, 0.7), (3, 0.34), (10, 0.95),
                (3, 3**-0.5), (2, 2**-0.5), (5, 5**-0.25), (5, 5 ** (-2 / 3))]


def _exact_scale_le(b, lam):
    """b^q lam^t <= 1 from logs scaled by 2^256, each within 1 of exact, so
    q + t + 1 bounds their rounding; integer powers decide inside that."""
    frac = Fraction(lam)
    num, den = frac.numerator, frac.denominator
    with mpmath.workprec(400):
        log_b = int(mpmath.nint(mpmath.ln(b) * mpmath.mpf(2) ** 256))
        log_inv = int(mpmath.nint(mpmath.ln(mpmath.mpf(den) / num) * mpmath.mpf(2) ** 256))

    def le(q, t):
        s = q * log_b - t * log_inv
        if abs(s) > q + t + 1:
            return s < 0
        return b**q * num**t <= den**t
    return le


def test_depth_maps_match_exact_predicate():
    """n_hat(n) is the least m with b^n lam^m <= 1 and q_height(t) the
    largest q with b^q lam^t <= 1, for every n in 0..2000."""
    for b, lam in _DEPTH_PAIRS:
        p = make_params(b, lam)
        le = _exact_scale_le(b, p.lam)
        for n in range(2001):
            m = M.n_hat(p, n)
            assert le(n, m) and (m == 0 or not le(n, m - 1)), (b, lam, n, m)
            q = F.q_height(p, n)
            assert le(q, n) and not le(q + 1, n), (b, lam, n, q)


def test_depth_maps_exact_fallback_alone(monkeypatch):
    """With the float margin at infinity and the fixed-point logs at zero,
    every comparison but the tie pairs' exponent compare takes the
    big-integer fallback: the same answers."""
    params = [make_params(b, lam) for b, lam in _DEPTH_PAIRS]
    ns = range(201)
    fast = [[(M.n_hat(p, n), F.q_height(p, n)) for n in ns] for p in params]
    constants = _util._scale_constants
    monkeypatch.setattr(_util, "_MARGIN", math.inf)
    monkeypatch.setattr(_util, "_scale_constants", lambda b, lam: constants(b, lam)[:5] + (0, 0))
    assert [[(M.n_hat(p, n), F.q_height(p, n)) for n in ns] for p in params] == fast


def test_fixed_point_logs_within_one_unit():
    """The logs of the middle tier lie within one unit of 2^-256 of a
    400-bit value, for every b in 2..32 and lam on both sides of 1/2."""
    with mpmath.workprec(400):
        unit = mpmath.mpf(2) ** 256
        for b in range(2, 33):
            for lam in (0.7, 0.51, 0.95, b**-0.5, 1.0 / b + 1e-3):
                num, den = Fraction(lam).numerator, Fraction(lam).denominator
                *_, fixed_b, fixed_inv = _util._scale_constants(b, lam)
                assert abs(fixed_b - mpmath.ln(b) * unit) <= 1, (b, lam)
                assert abs(fixed_inv - mpmath.ln(mpmath.mpf(den) / num) * unit) <= 1, (b, lam)


_SLOW_PAIRS = [(3, 3**-0.5), (2, 2**-0.5), (5, 5**-0.25), (5, 5 ** (-2 / 3))]


def test_big_integer_tier_only_at_zero(monkeypatch):
    """On pairs with lam within rounding of b^(-j/k), where the float band
    holds about every k-th depth, the fixed-point logs settle all of them:
    integer powers are compared only at q = t = 0."""
    calls = []
    power_le = _util._power_le

    def counted(b, q, num, den, t):
        calls.append((q, t))
        return power_le(b, q, num, den, t)

    monkeypatch.setattr(_util, "_power_le", counted)
    for b, lam in _SLOW_PAIRS:
        p = make_params(b, lam)
        for n in range(2001):
            M.n_hat(p, n)
            F.q_height(p, n)
    assert calls and set(calls) == {(0, 0)}


def test_depth_maps_take_integer_arguments():
    """numpy integers are exact (b**n once wrapped in int64), while floats
    and bools are refused rather than truncated."""
    p = make_params(3, 0.5)
    assert M.n_hat(p, np.int64(40)) == M.n_hat(p, 40) == 64
    assert F.q_height(p, np.int64(64)) == F.q_height(p, 64) == 40
    for bad in (2.5, 2.0, True, np.float64(3.0)):
        with pytest.raises(TypeError):
            M.n_hat(p, bad)
        with pytest.raises(TypeError):
            F.q_height(p, bad)


def test_ucas_probe_rough_case():
    """Small-ball mass ratios stay away from 1 for the rough projection."""
    p = _p2()
    code = seeded_code(2, 0)
    rep = M.ucas_probe(p, P.cos_phi(), [code], delta=2.0**-4, n_samples=1 << 16)
    assert 0.0 < rep.sup_ratio < 0.5
    assert not rep.degenerate_atom
    assert rep.n_ratios > 0
    with pytest.raises(ValueError):
        M.ucas_probe(p, P.cos_phi(), [code], delta=1.5)


def test_ucas_probe_degenerate_atom():
    """The analytic projection collapses to an atom and pins the ratio."""
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    rep = M.ucas_probe(p, an, [seeded_code(2, 0)], delta=2.0**-4,
                       n_samples=1 << 12)
    assert rep.degenerate_atom
    assert rep.sup_ratio > 0.9


def test_porosity_uniform_and_atom_are_exact():
    """Uniform and point-mass inputs hit the low-entropy event everywhere."""
    n1, n2, m = 2, 4, 3
    uniform = M.histogram_from_values(
        (np.arange(2 ** (n2 + m)) + 0.5) / 2 ** (n2 + m), 2, n2 + m
    )
    rep_u = M.porosity_probe(uniform, h=1.0, delta=0.1, m=m, n1=n1, n2=n2)
    assert rep_u.fraction == 1.0
    assert rep_u.porous
    assert rep_u.vacuous  # h + delta = 1.1: every measure would pass
    atom = M.histogram_from_values(np.full(4, 0.37), 2, n2 + m)
    rep_a = M.porosity_probe(atom, h=0.5, delta=0.1, m=m, n1=n1, n2=n2)
    assert rep_a.fraction == 1.0
    assert rep_a.porous
    assert not rep_a.vacuous


def test_porosity_guards():
    """A histogram too coarse for n2 + m, an m below 1, scales out of
    order, a delta outside (0, 1) and an h that is not finite are refused;
    a level too deep for int64 cell indices is refused where the projected
    measure is sampled."""
    shallow = M.histogram_from_values(np.array([0.2, 0.8]), 2, 3)
    with pytest.raises(ValueError, match="too coarse"):
        M.porosity_probe(shallow, 0.5, 0.1, m=3, n1=1, n2=2)
    with pytest.raises(ValueError, match="m must be positive"):
        M.porosity_probe(shallow, 0.5, 0.1, m=0, n1=1, n2=2)
    with pytest.raises(ValueError, match="n1 <= n2"):
        M.porosity_probe(shallow, 0.5, 0.1, m=1, n1=2, n2=1)
    for delta in (math.nan, -0.5, 0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="delta must lie in the open interval"):
            M.porosity_probe(shallow, 0.5, delta, m=1, n1=1, n2=2)
    for h in (math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be finite"):
            M.porosity_probe(shallow, h, 0.1, m=1, n1=1, n2=2)
    with pytest.raises(ValueError, match="overflow"):
        M.sample_projected_measure(_p2(), P.cos_phi(), seeded_code(2, 0), 64, 64)


@given(st.integers(2, 3), st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_n_hat_property(b, n):
    lam = 0.5 + 0.4 / b
    p = make_params(b, lam)
    m = M.n_hat(p, n)
    lam_q = Fraction(lam)
    if n == 0:
        assert m == 0
    else:
        assert lam_q**m <= Fraction(1, b**n) < lam_q ** (m - 1)


@given(
    st.lists(st.floats(0.001, 0.999, allow_nan=False), min_size=3, max_size=60),
    st.integers(1, 3),
)
@settings(max_examples=50, deadline=None)
def test_entropy_chain_rule_property(vals, m_level):
    """Entropy always splits exactly across a coarser partition."""
    h = M.histogram_from_values(np.array(vals), 2, 5)
    coarse = M.coarsen(h, m_level)
    acc = M.entropy(coarse)
    for key, mass in zip(coarse.keys, coarse.masses):
        comp = M.component_measure(h, m_level, int(key))
        acc += (mass / coarse.total) * M.entropy(comp)
    assert acc == pytest.approx(M.entropy(h), abs=1e-12)
