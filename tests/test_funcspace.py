"""Contact maps, theta measures, separation constant, and entropy gains."""

import dataclasses
import itertools
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
    coords = oracle.pibar(cm, 4)
    assert len(coords) == 4 + 2
    assert coords[0] == 3.0
    assert coords[-1] == cm.c
    from weierlab.kernel import eval_gamma

    assert coords[-2] == pytest.approx(eval_gamma(p, P.cos_phi(), 1.0, cm.code),
                                       abs=1e-12)
    with pytest.raises(ValueError, match="power of b"):
        oracle.pibar(cm, 3)


def test_partition_cell_level_zero():
    """Level 0 keeps only the height and the constant floor at depth q."""
    p = _p2()
    cm = F.ContactMap.from_word(p, P.cos_phi(), (0, 1), seeded_code(2, 3))
    cell = oracle.partition_cell(cm, 0, 2)
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
            fine = oracle.partition_cell(cm, i + 1, 2)
            coarse = oracle.partition_cell(cm, i, 2)
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


def test_build_theta_subsample_is_the_sorted_distinct_draw():
    """The subsample keeps the first ``subsample`` distinct values of the
    seeded draw in increasing order, as ``np.unique`` would, byte for byte
    the same for a seed."""
    from weierlab._util import substream

    p = _p2()
    code = seeded_code(2, 0)
    total = 2 ** M.n_hat(p, 8)
    for seed in (0, 5):
        th = F.build_theta(p, P.cos_phi(), code, 8, cap=64, subsample=3000, seed=seed)
        draw = substream(seed, 0x7E7A).integers(0, total, size=int(3000 * 1.2) + 16)
        assert th.indices.dtype == np.int64 and len(th) == 3000
        assert np.all(np.diff(th.indices) > 0)
        assert np.array_equal(th.indices, np.unique(draw)[:3000])
        again = F.build_theta(p, P.cos_phi(), code, 8, cap=64, subsample=3000, seed=seed)
        assert again.indices.tobytes() == th.indices.tobytes()
        assert again.c.tobytes() == th.c.tobytes()


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


def test_gamma_at_many_words_residue_tree_is_bitwise_per_depth():
    """With len(idx) >= b^m the shallow depths come from the residue table;
    every element equals the per-word sweep of ``oracle`` bit for bit, for
    unsorted, repeated and empty index arrays."""
    for b, lam in [(2, 0.7), (3, 0.5), (5, 0.3)]:
        p = make_params(b, lam)
        phis = [P.cos_phi(), P.cos_phi(0.3),
                P.FourierPhi({1: 0.5, -1: 0.5, 2: 0.1 + 0.2j, -2: 0.1 - 0.2j,
                              5: 0.03j, -5: -0.03j}),
                P.phi_from_w0(P.cos_phi(), 2, 0.7)]
        rng = np.random.default_rng(b)
        base = seeded_code(b, 1)
        for width in range(6, 21):
            draw = rng.integers(0, b**width, 2 * b**3)
            idx = np.concatenate([draw, draw[:b**2], [0, b**width - 1]])  # unsorted, repeats
            for phi in phis:
                for x, got in ((0.7, ()), (np.array([0.5, 1.0]), (2,))):
                    fast = F.gamma_at_many_words(p, phi, x, idx, width, base, 1e-9)
                    slow = oracle.gamma_words_per_depth(p, phi, x, idx, width, base, 1e-9)
                    assert fast.shape == slow.shape == idx.shape + got
                    assert fast.tobytes() == slow.tobytes(), (b, width)
                empty = F.gamma_at_many_words(p, phi, np.array([0.5, 1.0]),
                                              np.array([], dtype=np.int64), width, base)
                assert empty.shape == (0, 2)


def test_gamma_at_many_words_matches_scalar():
    """The word sweep over an array of points equals the per-word scalar
    Gamma to 1e-12 plus the documented bound of the collapsed deep depths,
    for b = 2, 3, 5, at widths 1 to 14, on a seeded and the 1^infinity base."""
    from weierlab.kernel import eval_gamma

    phis = [P.cos_phi(), P.cos_phi(0.3),
            P.FourierPhi({1: 0.5, -1: 0.5, 2: 0.1 + 0.2j, -2: 0.1 - 0.2j, 5: 0.03j, -5: -0.03j})]
    xs = np.array([0.25, 0.5, 1.0, 0.9])
    for b, lam in [(2, 0.7), (3, 0.5), (5, 0.3)]:
        p = make_params(b, lam)
        rng = np.random.default_rng(b)
        for base, width in itertools.product([seeded_code(b, 0), periodic_code(b, (), (1,))],
                                             (1, 2, 5, 9, 14)):
            idx = np.unique(np.r_[0, b**width - 1, rng.integers(0, b**width, 6)])
            for phi in phis:
                fast = F.gamma_at_many_words(p, phi, xs, idx, width, base, 1e-10)
                assert fast.shape == (len(idx), len(xs))
                bound = 2.0**-48 * sum(
                    2 * math.pi * k * abs(c) for k, c in phi.coeffs.items() if k > 0
                ) * 2 * p.gamma ** (width + 1) / (1.0 - p.gamma)
                for i, r in enumerate(idx):
                    rev = tuple(int(r) // b**j % b for j in range(width))  # reverse(word)
                    for j, x in enumerate(xs):
                        slow = eval_gamma(p, phi, float(x), base.prepend(rev), 1e-10)
                        assert abs(fast[i, j] - slow) <= 1e-12 + bound * x
                one = F.gamma_at_many_words(p, phi, 0.9, idx, width, base, 1e-10)
                assert one.shape == (len(idx),)
                assert np.allclose(one, fast[:, 3], rtol=1e-14, atol=1e-14)
    # 1,361 terms at (2, 0.51): b^m and lam^-m leave float range (an
    # OverflowError before the deep depths were factored, and for the
    # triangle until they were weighted by gamma^m)
    p, base, idx = make_params(2, 0.51), seeded_code(2, 0), np.array([0, 5, 7])
    for phi in (phis[1], P.triangle_phi()):
        fast = F.gamma_at_many_words(p, phi, xs[:2], idx, 3, base, 1e-10)
        for i, r in enumerate(idx):
            rev = tuple(int(r) // 2**j % 2 for j in range(3))
            for j, x in enumerate(xs[:2]):
                slow = eval_gamma(p, phi, float(x), base.prepend(rev), 1e-10)
                assert abs(fast[i, j] - slow) <= 1e-12 * max(1.0, abs(slow))


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


def test_gamma_at_many_words_piecewise_steps_across_breakpoint():
    """At (3, 0.5) on the base 1^infinity the word 1 has deep offsets
    1/2 - 3^-m / 2, and for x > 1/2 each step crosses the breakpoint 1/2.
    float(o) carries an error of up to 2^-55 there, which lam^-m = 2^m
    magnified to 5.9e-9 until such steps took the exact offset.

    The shallow depths m <= width need the same repair.  At (2, 0.7) the
    all-ones word has offsets 1 - 2^-m, which round onto the breakpoint 1
    from m = 54 on (1.0e-8 relative error at width 54); at (3, 0.5) the
    word of all ones has offsets 1/2 - 3^-m / 2, whose rounding lam^-m =
    2^m magnifies (1.8e-10 relative at width 20)."""
    from weierlab.kernel import eval_gamma

    p = make_params(3, 0.5)
    tri = P.triangle_phi()
    base = periodic_code(3, (), (1,))
    xs = np.array([0.25, 0.75, 0.9, 1.0])
    fast = F.gamma_at_many_words(p, tri, xs, np.arange(3), 1, base, 1e-10)
    slow = np.array([[eval_gamma(p, tri, float(x), base.prepend((r,)), 1e-10) for x in xs]
                     for r in range(3)])
    assert np.max(np.abs(fast - slow)) <= 1e-12
    for b, lam, widths in [(2, 0.7, (54, 60)), (3, 0.5, (14, 20))]:
        p = make_params(b, lam)
        for base, width in itertools.product([periodic_code(b, (), (1,)), seeded_code(b, 0)],
                                             widths):
            r = (b**width - 1) // (b - 1)  # the word of all ones
            fast = F.gamma_at_many_words(p, tri, 0.75, np.array([r]), width, base, 1e-10)[0]
            slow = eval_gamma(p, tri, 0.75, base.prepend((1,) * width), 1e-10)
            assert abs(fast - slow) <= 1e-12 * abs(slow), (b, width, base)


@pytest.mark.parametrize("b,lam", [(2, 0.7), (2, 0.51), (3, 0.34), (3, 0.5), (5, 0.45)])
def test_piecewise_gamma_three_pieces(b, lam):
    """A continuous wave of three pieces with kinks at 1/3 and 3/4, not
    dyadic: ``eval_gamma_many`` and ``gamma_at_many_words`` match the scalar
    ``eval_gamma`` to 1e-12 relative.  Words b^(w-1) put the offset at depth
    w exactly on 1/3 at b = 3, and (3, 0.34) and (2, 0.51) sum past the
    depth where b^-m underflows."""
    from weierlab.kernel import eval_gamma, eval_gamma_many

    p = make_params(b, lam)
    xs = np.array([-0.8, -1 / 3, 1 / 3, 0.75, 1.7])
    bases = [periodic_code(b, (), (1,)), periodic_code(b, (), (b - 1,)), seeded_code(b, 5)]
    for width, base in zip((1, 3, 6), bases):
        idx = np.array([b ** (width - 1), np.random.default_rng(width).integers(b**width),
                        b**width - 1])
        codes = [base.prepend(tuple(int(r) // b**i % b for i in range(width))) for r in idx]
        slow = np.array([[eval_gamma(p, oracle.SAW3, float(x), c, 1e-10) for x in xs]
                         for c in codes])
        words = F.gamma_at_many_words(p, oracle.SAW3, xs, idx, width, base, 1e-10)
        many = eval_gamma_many(p, oracle.SAW3, xs, codes, 1e-10).T
        for fast in (words, many):
            assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow)), (width, fast - slow)


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


def test_theta_cell_labels_match_partition_cells():
    """Labels number the scalar partition cells: two atoms share a label
    exactly when ``oracle.partition_cell`` agrees, and the labels are 0 ..
    n_cells - 1, each in use."""
    p = _p2()
    th = F.build_theta(p, P.cos_phi(), seeded_code(2, 0), 4)
    for level in (0, 1, 3):  # at level 1, 73 constant-coordinate cells hold several atoms
        labels, n_cells = F.theta_cell_labels(th, level, 2)
        assert np.array_equal(np.unique(labels), np.arange(n_cells))
        cells = [oracle.partition_cell(th.contact_map(i), level, 2, 1e-9) for i in range(len(th))]
        assert len(set(zip(labels.tolist(), cells))) == len(set(cells)) == n_cells


def test_theta_cell_labels_match_unique_lexsort():
    """The labels from c order and packed psi keys are the exact labels and
    cell count of the ``np.unique`` + ``np.lexsort`` labeller, for b = 2
    and 3 with the cosine and the triangle, at levels 0, 1, 2, n and 2n;
    the analytic twin has one cell at each."""
    for b, lam in [(2, 0.7), (3, 0.5)]:
        p = make_params(b, lam)
        code = seeded_code(b, 3)
        twin = P.phi_from_w0(P.cos_phi(), b, lam)
        for phi, n in [(P.cos_phi(), 4), (P.triangle_phi(), 4), (P.cos_phi(), 5), (twin, 4)]:
            th = F.build_theta(p, phi, code, n)
            for level in (0, 1, 2, n, 2 * n):
                labels, n_cells = F.theta_cell_labels(th, level, b)
                ref, ref_cells = oracle.theta_labels_unique_lexsort(th, level, b)
                assert n_cells == ref_cells and labels.tobytes() == ref.tobytes(), (b, n, level)
                if phi is twin:
                    assert n_cells == 1


def test_theta_cell_labels_with_repeated_constants():
    """Atoms of equal c: the labels match the reference labeller, whatever
    order the equal atoms take in ``theta.order``."""
    p = _p2()
    th = F.build_theta(p, P.cos_phi(), seeded_code(2, 0), 5)
    tied = dataclasses.replace(th, c=np.round(th.c, 1))
    assert len(np.unique(tied.c)) < len(tied) // 10
    orders = [np.argsort(tied.c, kind="stable"),
              np.lexsort((-np.arange(len(tied)), tied.c))]  # ties reversed
    for level in (0, 1, 2, 5, 10):
        ref, ref_cells = oracle.theta_labels_unique_lexsort(tied, level, 2)
        for order in [tied.order, *orders]:
            tied.order = order
            labels, n_cells = F.theta_cell_labels(tied, level, 2)
            assert n_cells == ref_cells and np.array_equal(labels, ref), level


def test_theta_cell_labels_refuse_keys_past_int64():
    """A level is refused where the constant-coordinate floors, the psi
    floors or a packed key group * span would pass 2^62.  With every c
    zero, all 64 atoms share one bucket and psi alone splits them."""
    th = F.build_theta(_p2(), P.cos_phi(), seeded_code(2, 0), 3)
    with pytest.raises(ValueError, match="too deep"):
        F.theta_cell_labels(th, 62, 2)
    flat = dataclasses.replace(th, c=np.zeros(len(th)))
    labels, n_cells = F.theta_cell_labels(flat, 50, 2)
    ref, ref_cells = oracle.theta_labels_unique_lexsort(flat, 50, 2)
    assert n_cells == ref_cells == 64 and np.array_equal(labels, ref)
    loud = F.build_theta(_p2(), P.FourierPhi({1: 50.0, -1: 50.0}), seeded_code(2, 0), 3)
    for theta in (flat, dataclasses.replace(loud, c=np.zeros(len(loud)))):  # packed key; psi
        with pytest.raises(ValueError, match="too deep"):
            F.theta_cell_labels(theta, 56, 2)


def test_theta_labels_refine_with_level():
    p = _p2()
    th = F.build_theta(p, P.cos_phi(), seeded_code(2, 0), 4)
    _, cells0 = F.theta_cell_labels(th, 0, 2)
    _, cells2 = F.theta_cell_labels(th, 2, 2)
    assert cells2 >= cells0


def test_negative_partition_level_is_refused():
    """Level -1 is no coarser partition: it used to floor c at b^(q-1) and
    psi at b^-1, giving theta at n=4 more cells than level 0 has."""
    p = _p2()
    code = seeded_code(2, 0)
    th = F.build_theta(p, P.cos_phi(), code, 4)
    for level in (-1, -3):
        with pytest.raises(ValueError, match="i_level must be nonnegative"):
            F.theta_cell_labels(th, level, 2)
    with pytest.raises(ValueError, match="i_level must be nonnegative"):
        F.theta_entropy(p, P.cos_phi(), code, 4, -1, 2, theta=th)
    with pytest.raises(ValueError, match="i_level must be nonnegative"):
        F.entropy_increase_experiment(p, P.cos_phi(), code, 4, -1, 2, 2)


def test_theta_cells_csv_schema():
    p = _p2()
    th = F.build_theta(p, P.cos_phi(), seeded_code(2, 0), 2)
    labels, _ = F.theta_cell_labels(th, 1, 2)
    lines = F.theta_cells_csv(th, labels).strip().splitlines()
    assert lines[0] == "word,t,cell_id"
    assert len(lines) == 1 + len(th)
    for row in lines[1:]:
        word, t, cell = row.split(",")
        assert len(word) == th.n_hat
        assert int(t) == th.n_hat
        assert all(part.lstrip("-").isdigit() for part in cell.split(":"))


def test_theta_cells_csv_matches_per_atom_rows():
    """The column-joined dump equals the per-atom rows of ``oracle``
    byte for byte, including bases of two-character digits and a word of
    length zero."""
    for b, lam, n, sub in [(2, 0.7, 6, None), (3, 0.5, 3, None), (11, 0.5, 1, None),
                           (13, 0.6, 1, 500), (2, 0.7, 30, 500), (2, 0.7, 0, None)]:
        p = make_params(b, lam)
        th = F.build_theta(p, P.cos_phi(), seeded_code(b, 0), n, cap=1 << 16, subsample=sub)
        labels, _ = F.theta_cell_labels(th, 1, b)
        assert F.theta_cells_csv(th, labels) == oracle.theta_cells_rows(th, labels), (b, n)


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
