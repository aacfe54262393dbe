"""Contact maps, theta measures, separation constant, and entropy gains."""

import math
from fractions import Fraction

import numpy as np
import pytest

import weierlab.funcspace as F
import weierlab.measure as M
import weierlab.phi as P
from weierlab import make_params
from weierlab.kernel import apply_word, periodic_code, project, seeded_code

import oracle


def _p2():
    return make_params(2, 0.7)


def _hist(keys, masses, b, level):
    vals = (np.asarray(keys, dtype=np.float64) + 0.25) / float(b) ** level
    return M.histogram_from_values(vals, b, level,
                                   weights=np.asarray(masses, dtype=np.float64))


def test_contact_map_is_projection_of_word_image():
    """Psi_u(x, y) equals the base projection of g_u(x, y) pointwise."""
    p = _p2()
    cos = P.cos_phi()
    base = seeded_code(2, 0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(30):
        length = int(rng.integers(1, 7))
        word = tuple(int(s) for s in rng.integers(0, 2, length))
        cm = F.ContactMap.from_word(p, cos, word, base)
        assert cm.t == length
        x, y = float(rng.random()), float(rng.random()) * 2 - 1
        gx, gy = apply_word(p, cos, word, x, y)
        worst = max(worst, abs(cm(x, y) - project(p, cos, gx, gy, base)))
    assert worst < 1e-9


def test_contact_map_apply_vec_matches_scalar():
    p = _p2()
    cm = F.ContactMap.from_word(p, P.cos_phi(), (1, 0), seeded_code(2, 1))
    xs = np.linspace(0, 1, 33, endpoint=False)
    ys = np.sin(xs * 7)
    v = cm.apply_vec(xs, ys)
    s = np.array([cm(float(x), float(y)) for x, y in zip(xs, ys)])
    assert np.max(np.abs(v - s)) < 1e-9


def test_q_height_exact():
    """b^q lam^t <= 1 < b^(q+1) lam^t, with ties resolved downward."""
    p = _p2()
    assert F.q_height(p, 0) == 0
    # for (4, 0.5), (8, 0.25) and (32, 0.0625), b^q lam^t is exactly 1 when
    # t log_b(1/lam) is an integer (t even, a multiple of 3, of 5)
    for b, lam_f in [(2, 0.7), (4, 0.5), (8, 0.25), (32, 0.0625)]:
        lam = Fraction(lam_f)
        for t in range(1, 201):
            q = F.q_height(make_params(b, lam_f), t)
            assert lam**t * b**q <= 1
            assert lam**t * b ** (q + 1) > 1
    assert F.q_height(make_params(4, 0.5), 2) == 1
    with pytest.raises(ValueError):
        F.q_height(p, -1)


def test_pibar_layout():
    p = _p2()
    cm = F.ContactMap.from_word(p, P.cos_phi(), (1, 1, 0), seeded_code(2, 2))
    coords = F.pibar(cm, 4)
    assert len(coords) == 4 + 2
    assert coords[0] == 3.0
    assert coords[-1] == cm.c
    from weierlab.kernel import eval_gamma

    assert coords[-2] == pytest.approx(eval_gamma(p, P.cos_phi(), 1.0, cm.code),
                                       abs=1e-12)
    with pytest.raises(ValueError, match="power of b"):
        F.pibar(cm, 3)


def test_partition_cell_level_zero():
    """Level 0 keeps only the height and the constant floor at depth q."""
    p = _p2()
    cm = F.ContactMap.from_word(p, P.cos_phi(), (0, 1), seeded_code(2, 3))
    cell = F.partition_cell(cm, 0, 2)
    q = F.q_height(p, 2)
    assert cell == (2, math.floor(cm.c * 2**q))


def test_partition_cells_nest():
    """Refining the level splits cells without moving atoms across cells."""
    p = _p2()
    base = seeded_code(2, 4)
    rng = np.random.default_rng(1)
    for _ in range(12):
        word = tuple(int(s) for s in rng.integers(0, 2, int(rng.integers(1, 6))))
        cm = F.ContactMap.from_word(p, P.cos_phi(), word, base)
        for i in [1, 2]:
            fine = F.partition_cell(cm, i + 1, 2)
            coarse = F.partition_cell(cm, i, 2)
            assert fine[0] == coarse[0]
            assert all(f // 2 == c for f, c in zip(fine[1:], coarse[1:]))


def test_build_theta_enumerates_words():
    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 0)
    th = F.build_theta(p, cos, code, 3)
    assert len(th) == 64
    assert th.n_hat == M.n_hat(p, 3)
    assert not th.subsampled
    assert th.word(5) == (0, 0, 0, 1, 0, 1)
    cm = th.contact_map(5)
    ref = F.ContactMap.from_word(p, cos, th.word(5), code)
    assert abs(cm.c - ref.c) < 4e-9
    assert cm.t == th.n_hat


def test_build_theta_subsample_reproducible():
    """Beyond the cap the atom set comes from the seeded substream."""
    p = _p2()
    code = seeded_code(2, 0)
    a = F.build_theta(p, P.cos_phi(), code, 3, cap=8, subsample=16, seed=5)
    b = F.build_theta(p, P.cos_phi(), code, 3, cap=8, subsample=16, seed=5)
    assert len(a) == 16 and a.subsampled
    assert np.array_equal(a.indices, b.indices)
    c = F.build_theta(p, P.cos_phi(), code, 3, cap=8, subsample=16, seed=6)
    assert not np.array_equal(a.indices, c.indices)
    with pytest.raises(ValueError, match="cap"):
        F.build_theta(p, P.cos_phi(), code, 3, cap=8)


def test_gamma_at_many_words_matches_scalar():
    """The vectorized word sweep equals per-word projections of Gamma."""
    from weierlab.kernel import eval_gamma

    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 0)
    th = F.build_theta(p, cos, code, 3)
    for x in [0.5, 1.0]:
        fast = F.gamma_at_many_words(p, cos, x, th.indices, th.n_hat, code)
        slow = np.array([
            eval_gamma(p, cos, x, code.prepend(tuple(reversed(th.word(i)))))
            for i in range(len(th))
        ])
        assert np.max(np.abs(fast - slow)) < 1e-8


def test_gamma_at_many_words_piecewise_exact_offsets():
    """On the base 1^infinity the deep offsets r / 2^m + 1 - 2^-(m - 6) round
    onto the triangle's breakpoint 1; the sweep still equals the exact
    scalar Gamma of every word."""
    from weierlab.kernel import eval_gamma

    p = _p2()
    tri = P.triangle_phi()
    base = periodic_code(2, (), (1,))
    idx = np.arange(64)
    fast = F.gamma_at_many_words(p, tri, 0.5, idx, 6, base, 1e-10)
    words = [tuple(int(c) for c in format(i, "06b")) for i in idx]
    slow = np.array([eval_gamma(p, tri, 0.5, base.prepend(tuple(reversed(w))), 1e-10)
                     for w in words])
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_build_theta_rejects_subsample_past_int64():
    """b^n_hat = 10^180 atoms at (10, 0.95), n = 4: no int64 word index."""
    with pytest.raises(ValueError, match="2\\^63"):
        F.build_theta(make_params(10, 0.95), P.cos_phi(), seeded_code(10, 0), 4,
                      subsample=1000)


def test_theta_entropy_matches_direct_count():
    p = _p2()
    cos = P.cos_phi()
    code = seeded_code(2, 0)
    th = F.build_theta(p, cos, code, 4)
    labels, n_cells = F.theta_cell_labels(th, 0, 2)
    counts = np.bincount(labels, minlength=n_cells)
    rep = F.theta_entropy(p, cos, code, 4, 0, 2, theta=th)
    assert rep.n_atoms == 256
    assert rep.n_cells == n_cells
    assert rep.entropy == pytest.approx(
        oracle.shannon_entropy_counts(counts, 2), abs=1e-12
    )
    assert rep.entropy > 0.0


def test_theta_entropy_analytic_collapses():
    """In the analytic case all contact maps share one constant."""
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    rep = F.theta_entropy(p, an, seeded_code(2, 0), 4, 0, 2)
    assert rep.n_cells == 1
    assert rep.entropy == 0.0


def test_theta_labels_refine_with_level():
    p = _p2()
    th = F.build_theta(p, P.cos_phi(), seeded_code(2, 0), 4)
    _, cells0 = F.theta_cell_labels(th, 0, 2)
    _, cells2 = F.theta_cell_labels(th, 2, 2)
    assert cells2 >= cells0


def test_theta_cells_csv_schema():
    p = _p2()
    th = F.build_theta(p, P.cos_phi(), seeded_code(2, 0), 2)
    lines = F.theta_cells_csv(th, 1, 2).strip().splitlines()
    assert lines[0] == "word,t,cell_id"
    assert len(lines) == 1 + len(th)
    for row in lines[1:]:
        word, t, cell = row.split(",")
        assert len(word) == th.n_hat
        assert int(t) == th.n_hat
        assert all(part.lstrip("-").isdigit() for part in cell.split(":"))


def test_separation_constant_and_stability():
    """One extra level separates every colliding pair here, stably in n."""
    p = _p2()
    code = seeded_code(2, 0)
    rep6 = F.separation_constant_c(p, P.cos_phi(), code, 6, 2)
    assert rep6.separable
    assert rep6.c_value == 1
    assert all(cn <= 1 for cn in rep6.per_n.values())
    rep8 = F.separation_constant_c(p, P.cos_phi(), code, 8, 2)
    assert rep8.c_value == rep6.c_value


def test_separation_constant_degenerate_generator():
    """With phi = 0 all constants coincide and no level can separate."""
    p = _p2()
    rep = F.separation_constant_c(p, P.zero_phi(), seeded_code(2, 0), 4, 2)
    assert not rep.separable
    assert rep.c_value is None
    assert rep.failures


def test_convolution_point_mass_is_neutral():
    tau = _hist([0, 1, 2, 5], [1, 2, 1, 1], 2, 8)
    theta = _hist([7], [1.0], 2, 8)
    g = F.convolution_entropy_gain(theta, tau, 4, 4)
    assert abs(g.gain) < 1e-14
    assert abs(g.gain) <= 2.0 / 4
    assert g.h_conv == pytest.approx(g.h_tau, abs=1e-14)


def test_convolution_transverse_progressions():
    """Step-b^(k/2) progressions fill the whole block: gain exactly 1/2."""
    k = 4
    theta = _hist([0, 4, 8, 12], [1, 1, 1, 1], 2, 4 + k)
    tau = _hist([0, 1, 2, 3], [1, 1, 1, 1], 2, 4 + k)
    g = F.convolution_entropy_gain(theta, tau, 4, k)
    assert g.gain == pytest.approx(0.5, abs=1e-13)
    assert g.h_conv == pytest.approx(4.0, abs=1e-13)
    assert g.h_tau == pytest.approx(2.0, abs=1e-13)
    assert g.level == 8


def test_convolution_matches_bruteforce():
    rng = np.random.default_rng(2)
    k, n = 5, 3
    for _ in range(5):
        ka = np.unique(rng.integers(0, 2**k, 40))
        kb = np.unique(rng.integers(0, 2**k, 60))
        ma = rng.random(len(ka)) + 0.05
        mb = rng.random(len(kb)) + 0.05
        theta = _hist(ka, ma, 2, n + k)
        tau = _hist(kb, mb, 2, n + k)
        g = F.convolution_entropy_gain(theta, tau, n, k)
        ref = oracle.dict_convolution_entropy(ka, ma, kb, mb, 2)
        assert abs(g.h_conv - ref) < 1e-12
        assert g.gain == pytest.approx((g.h_conv - g.h_tau) / k, abs=1e-13)
        assert g.gain >= -1e-12


def test_convolution_input_guards():
    tau = _hist([0, 1], [1, 1], 2, 8)
    wide = _hist([0, 20], [1, 1], 2, 8)
    with pytest.raises(ValueError, match="exceeding"):
        F.convolution_entropy_gain(wide, tau, 4, 4)
    shallow = _hist([0, 1], [1, 1], 2, 7)
    with pytest.raises(ValueError, match="level"):
        F.convolution_entropy_gain(shallow, tau, 4, 4)
    with pytest.raises(ValueError, match="k must be positive"):
        F.convolution_entropy_gain(tau, tau, 8, 0)
    a = _hist(list(range(10)), [1] * 10, 2, 8)
    with pytest.raises(ValueError, match="too wide"):
        F.convolution_entropy_gain(a, a, 4, 4, dense_cap=8)


def test_eta_dot_histograms_map_values():
    p = _p2()
    base = seeded_code(2, 0)
    cm1 = F.ContactMap.from_word(p, P.cos_phi(), (0,), base)
    cm2 = F.ContactMap.from_word(p, P.cos_phi(), (1,), base)
    samples = [(0.1, 0.3), (0.4, -0.2), (0.9, 0.05)]
    h = F.eta_dot([(0.5, cm1), (0.5, cm2)], samples, 6)
    assert h.total == pytest.approx(1.0, abs=1e-12)
    single = F.eta_dot([(1.0, cm1)], samples, 6)
    vals = np.array([cm1(x, y) for x, y in samples])
    direct = M.histogram_from_values(vals, 2, 6)
    assert single.keys.tolist() == direct.keys.tolist()
    with pytest.raises(ValueError):
        F.eta_dot([], samples, 6)


def test_entropy_increase_experiment_positive_gains():
    """High-entropy components convolve the line measure strictly finer."""
    p = _p2()
    rep = F.entropy_increase_experiment(
        p, P.cos_phi(), seeded_code(2, 0), 8, 0, 4, 2,
        n_tau=1 << 13, max_components=40,
    )
    assert rep.n_processed == 40
    assert len(rep.rows) > 0
    assert rep.positive_fraction >= 0.9
    for _, h_eta, gain in rep.rows:
        assert h_eta >= rep.gain_threshold or h_eta >= 0.1
        assert gain > -1e-9


def test_entropy_increase_experiment_analytic_empty():
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    rep = F.entropy_increase_experiment(p, an, seeded_code(2, 0), 4, 0, 2, 2,
                                        n_tau=1 << 10)
    assert rep.rows == []
    assert rep.message == "no (H)-type components"
    assert rep.positive_fraction == 0.0


def test_experiment_csv_schema():
    p = _p2()
    rep = F.entropy_increase_experiment(
        p, P.cos_phi(), seeded_code(2, 0), 6, 0, 2, 2,
        n_tau=1 << 10, max_components=10,
    )
    lines = F.experiment_to_csv(rep).strip().splitlines()
    assert lines[0] == "n,i_level,k,component_id,H_eta,gain"
    assert len(lines) == 1 + len(rep.rows)
    for row in lines[1:]:
        n, i_level, k, cid, h_eta, gain = row.split(",")
        assert int(n) == 6 and int(i_level) == 0 and int(k) == 2
        int(cid)
        float(h_eta), float(gain)
