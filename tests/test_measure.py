"""Histograms, entropy identities, dimension estimators, and scale probes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weierlab.measure as M
import weierlab.phi as P
from weierlab import make_params
from weierlab.kernel import periodic_code, seeded_code

import oracle


def _p2():
    return make_params(2, 0.7)


def test_histogram_from_values_exact_cells():
    h = M.histogram_from_values(np.array([0.1, 0.3, 0.3, 0.9]), 2, 2)
    assert h.keys.tolist() == [0, 1, 3]
    assert h.masses.tolist() == [1.0, 2.0, 1.0]
    assert h.total == 4.0
    assert h.window == ((0, 1),)
    assert h.dim == 1 and h.n_cells == 3


def test_histogram_negative_values():
    h = M.histogram_from_values(np.array([-0.3, 0.6]), 2, 1)
    assert h.keys.tolist() == [-1, 1]
    assert h.window == ((-1, 1),)


def test_histogram_weighted_matches_counting():
    vals = np.array([0.1, 0.3, 0.3, 0.9])
    a = M.histogram_from_values(vals, 2, 2)
    b = M.histogram_from_values(vals, 2, 2, weights=np.ones(4))
    assert a.keys.tolist() == b.keys.tolist()
    assert a.masses.tolist() == b.masses.tolist()


def test_histogram_guards():
    with pytest.raises(ValueError, match="overflow"):
        M.histogram_from_values(np.array([1e20]), 2, 40)
    with pytest.raises(ValueError, match="non-finite"):
        M.histogram_from_values(np.array([0.5, np.nan]), 2, 3)
    with pytest.raises(ValueError, match="zero total mass"):
        M.histogram_from_values(np.array([0.5]), 2, 3, weights=np.array([0.0]))
    with pytest.raises(ValueError):
        M.histogram_from_values(np.array([]), 2, 3)


def test_cell_counts_grow_and_reject_non_finite_blocks():
    """Blocks that widen the range either way pack to the one-shot
    histogram; a NaN block fails the overflow guard; a range past
    max(4 n, 2^22) cells stops the dense counts."""
    blocks = [np.array([0.30, 0.41]), np.array([-0.52, 0.33]), np.array([1.9, 0.3])]
    counts = M._CellCounts(2, 5, 6)
    assert all(counts.add(v) for v in blocks)
    whole = M.histogram_from_values(np.concatenate(blocks), 2, 5)
    packed = counts.histogram()
    assert packed.keys.tolist() == whole.keys.tolist()
    assert packed.masses.tolist() == whole.masses.tolist()
    with pytest.raises(ValueError, match="non-finite"):
        counts.add(np.array([0.2, np.nan]))
    assert not M._CellCounts(2, 30, 4).add(np.array([0.0, 0.9]))


def test_histogram_from_points_2d():
    h = M.histogram_from_points(np.array([0.1, 0.6]), np.array([0.2, 0.9]), 2, 1)
    assert h.dim == 2
    assert h.keys.tolist() == [[0, 0], [1, 1]]
    assert h.window == ((0, 1), (0, 1))


def test_entropy_exact_values():
    """Uniform over b^k cells scores k in base b; an atom scores zero."""
    u = M.histogram_from_values(np.arange(8) / 8 + 1e-3, 2, 3)
    assert M.entropy(u) == pytest.approx(3.0, abs=1e-13)
    assert M.entropy(u, base_b=8) == pytest.approx(1.0, abs=1e-13)
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


def test_refine_uniform_split_and_roundtrip():
    h = M.histogram_from_values(np.array([0.3, 0.3, 0.9]), 2, 1)
    r = M.refine(h, 4)
    assert r.n_cells == 2 * 8
    assert r.total == pytest.approx(h.total, abs=1e-12)
    assert np.allclose(r.masses[:8], 2.0 / 8)
    back = M.coarsen(r, 1)
    assert back.keys.tolist() == h.keys.tolist()
    assert np.allclose(back.masses, h.masses)
    with pytest.raises(ValueError):
        M.refine(h, 0)
    with pytest.raises(ValueError):
        M.coarsen(h, 2)


def test_conditional_entropy_uniform():
    u = M.histogram_from_values(np.arange(16) / 16 + 1e-4, 2, 4)
    assert M.conditional_entropy(u, 1) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        M.conditional_entropy(u, 5)


def test_component_mixture_chain_rule():
    """H(fine) = H(coarse) + sum_c p_c H(component_c), to rounding."""
    rng = np.random.default_rng(5)
    vals = rng.random(2000)
    w = rng.random(2000) + 0.1
    h = M.histogram_from_values(vals, 2, 6, weights=w)
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


def test_add_histograms_recovers_mixture():
    rng = np.random.default_rng(7)
    h = M.histogram_from_values(rng.random(500), 2, 5)
    coarse = M.coarsen(h, 2)
    parts = [M.component_measure(h, 2, int(k)) for k in coarse.keys]
    mix = M.add_histograms(parts, (coarse.masses / coarse.total).tolist())
    assert mix.keys.tolist() == h.keys.tolist()
    assert np.allclose(mix.masses, h.masses / h.total, atol=1e-15)
    other = M.histogram_from_values(rng.random(10), 2, 3)
    with pytest.raises(ValueError, match="share"):
        M.add_histograms([h, other])


def test_histogram_quantiles():
    h = M.histogram_from_values(np.array([0.1, 0.9]), 2, 2)
    q = M.histogram_quantiles(h, [0.25, 1.0])
    assert q.tolist() == [0.125, 0.875]


def test_hist_text_roundtrip():
    rng = np.random.default_rng(9)
    h1 = M.histogram_from_values(rng.random(300), 2, 6, weights=rng.random(300))
    back = M.hist_from_text(M.hist_to_text(h1), 2)
    assert back.keys.tolist() == h1.keys.tolist()
    assert np.allclose(back.masses, h1.masses, rtol=0, atol=0)
    h2 = M.histogram_from_points(rng.random(50), rng.random(50), 3, 2)
    back2 = M.hist_from_text(M.hist_to_text(h2), 3)
    assert back2.dim == 2
    assert back2.keys.tolist() == h2.keys.tolist()


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
    assert not h1.meta["undersampled"]
    h3 = M.sample_projected_measure(p, cos, code, 1 << 3, 12, seed=3)
    assert h3.meta["undersampled"]


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
        assert curve.value_at(curve.levels[0]) == curve.values[0]
        assert set(curve.window) == set(range(4, 9))


@pytest.mark.parametrize("b, lam, phi, n", [
    (2, 0.7, P.cos_phi(), 1 << 13),
    (2, 0.7, P.cos_phi(), 1 << 15),  # four row blocks of the cosine's Gamma
    (3, 0.5, P.cos_phi(0.3), 3**8),
    (3, 0.5, P.triangle_phi(), 3**8),
])
def test_alpha_estimate_equals_per_code_histograms(b, lam, phi, n):
    """Counting every code's cells block by block gives exactly the slopes
    of one histogram of W - Gamma per code."""
    from weierlab.kernel import eval_gamma_vec
    from weierlab.weier import eval_w_vec

    p = make_params(b, lam)
    levels = range(3, 9)
    codes = [seeded_code(b, 4, i) for i in range(4)] + [periodic_code(b, (1,), (0,))]
    rep = M.alpha_estimate(p, phi, codes, levels, n, seed=9)
    xs = M.stratified_x(n, 0, n, 9)
    w = eval_w_vec(p, phi, xs, 1e-9)
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


def test_dim_mu_check_consistency():
    """The 2d entropy slope, with enough samples per occupied square, sits
    near 1 + (D - 1) alpha."""
    p = _p2()
    rep = M.dim_mu_check(p, P.cos_phi(), code_count=3, levels=range(3, 8),
                         n_samples=1 << 16)
    assert rep.rhs == pytest.approx(1.0 + (p.dim - 1.0) * rep.alpha_median, abs=1e-12)
    assert rep.gap == pytest.approx(abs(rep.dim_mu_est - rep.rhs), abs=1e-12)
    assert 1.2 < rep.dim_mu_est < 1.7


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


def test_decompose_projection_mixture_matches_direct():
    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 1)
    rep = M.decompose_projection(p, cos, code, n_decomp=2, level=5,
                                 n_samples=1 << 12, seed=2)
    assert len(rep.components) == 4
    assert all(w == 0.25 for w, _ in rep.components)
    assert rep.max_cell_gap <= rep.tolerance
    assert rep.tv_at_level < 0.2
    with pytest.raises(ValueError, match="cap"):
        M.decompose_projection(p, cos, code, 13, 5, 100, component_cap=1 << 12)


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
    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 0)
    n1, n2, m = 2, 4, 3
    uniform = M.histogram_from_values(
        (np.arange(2 ** (n2 + m)) + 0.5) / 2 ** (n2 + m), 2, n2 + m
    )
    rep_u = M.porosity_probe(p, cos, code, h=1.0, delta=0.1, m=m, n1=n1, n2=n2,
                             hist=uniform)
    assert rep_u.fraction == 1.0
    assert rep_u.porous
    atom = M.histogram_from_values(np.full(4, 0.37), 2, n2 + m)
    rep_a = M.porosity_probe(p, cos, code, h=0.5, delta=0.1, m=m, n1=n1, n2=n2,
                             hist=atom)
    assert rep_a.fraction == 1.0
    assert rep_a.porous


def test_porosity_guards():
    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 0)
    with pytest.raises(ValueError, match="level_cap"):
        M.porosity_probe(p, cos, code, 0.5, 0.1, m=5, n1=1, n2=25)
    shallow = M.histogram_from_values(np.array([0.2, 0.8]), 2, 3)
    with pytest.raises(ValueError, match="too coarse"):
        M.porosity_probe(p, cos, code, 0.5, 0.1, m=3, n1=1, n2=2, hist=shallow)


def test_curve_csv_flags_window():
    p = _p2()
    codes = [seeded_code(2, 0)]
    rep = M.alpha_estimate(p, P.cos_phi(), codes, levels=(3, 6), n_samples=1 << 10)
    text = M.curve_to_csv(rep.curves[0])
    lines = text.strip().splitlines()
    assert lines[0] == "level,H,slope_window_flag"
    flags = {}
    for row in lines[1:]:
        lv, h, fl = row.split(",")
        float(h)
        flags[int(lv)] = int(fl)
    assert flags[3] == 1 and flags[6] == 1
    assert flags[4] == 0 and flags[5] == 0


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
