"""Kernel, flow projections, transition identity, and separation scans."""

import math
from fractions import Fraction

import numpy as np
import pytest

import weierlab.kernel as K
import weierlab.phi as P
from weierlab import make_params

import oracle


def _p2():
    return make_params(2, 0.7)


def _symbols(code, count):
    return [code.symbol(i) for i in range(count)]


def test_code_symbols_and_prepend():
    """Eventually periodic codes index like the digit stream, and a
    prepended word is read before the rest."""
    c = K.periodic_code(2, (1,), (0, 1))
    assert _symbols(c, 6) == [1, 0, 1, 0, 1, 0]
    p = c.prepend((0, 1))
    assert _symbols(p, 5) == [0, 1, 1, 0, 1]
    with pytest.raises(IndexError):
        c.symbol(-1)


def test_seeded_code_is_reproducible():
    """A seeded code's symbols depend on its key alone, not on the order or
    reach of earlier reads, and a prepended word leaves the tail in place."""
    a = K.seeded_code(2, 42)
    first = _symbols(a, 64)
    a.symbol(5000)  # regrows the cached stream past its first block
    assert _symbols(K.seeded_code(2, 42), 64) == first
    assert _symbols(a.prepend((1, 0)), 12)[2:] == first[:10]
    assert _symbols(K.seeded_code(2, 43), 64) != _symbols(a, 64)


def test_code_validation():
    with pytest.raises(ValueError, match="exactly one"):
        K.Code(b=2, cycle=(0,), seed=(1,))
    with pytest.raises(ValueError, match="out of range"):
        K.periodic_code(2, (), (2,))


def test_code_offsets_exact_values():
    """o_n stacks the first n symbols as reversed digits over b^n."""
    c = K.periodic_code(2, (1, 0, 1), (1,))
    offs = K.code_offsets_exact(c, 3)
    assert offs == [Fraction(1, 2), Fraction(1, 4), Fraction(5, 8)]
    floats = K.code_offsets(c, 3)
    assert np.max(np.abs(floats - [0.5, 0.25, 0.625])) == 0.0


def test_offsets_float_rounding():
    c = K.seeded_code(3, 5)
    exact = K.code_offsets_exact(c, 40)
    floats = K.code_offsets(c, 40)
    err = [abs(float(e) - f) for e, f in zip(exact, floats)]
    assert max(err) < 1e-15


def test_kernel_matches_high_precision_sum():
    """Y agrees with the 50-digit reference over periodic and seeded codes."""
    cos = P.cos_phi()
    p = _p2()
    for code in [K.periodic_code(2, (), (1, 0)), K.seeded_code(2, 7)]:
        offs = K.code_offsets_exact(code, 200)
        for x in [0.0, 0.3, 0.5, 0.99]:
            ref = oracle.mp_y_cos(2, 0.7, x, offs)
            assert abs(K.eval_y(p, cos, x, code) - ref) < 5e-10


def test_kernel_oracle_base_three():
    p = make_params(3, 0.5)
    code = K.periodic_code(3, (2,), (0, 1))
    offs = K.code_offsets_exact(code, 150)
    for x in [0.2, 0.9]:
        ref = oracle.mp_y_cos(3, 0.5, x, offs)
        assert abs(K.eval_y(p, P.cos_phi(), x, code) - ref) < 5e-10


def test_kernel_vec_matches_scalar():
    """The array Y equals the scalar one to 1e-12 relative to max(1, |Y|),
    for Fourier tables and piecewise waves, on periodic and seeded codes,
    at points in [-1, 2].  (2, 0.51) and (3, 0.34) sum about 1,400 depths,
    past b^m in float range.  The table's twelfth harmonic needs the
    third-order tail: to second order it is 1.8e-11 off at (2, 0.51).

    The exact ``eval_y`` and ``eval_y_deriv`` on an array equal one call
    per point bit for bit, b-adic points and the waves' breakpoints
    included; a float in gives a float out."""
    phis = [
        P.cos_phi(),
        P.cos_phi(0.3),
        P.FourierPhi({1: 0.5, -1: 0.5, 2: 0.1 + 0.2j, -2: 0.1 - 0.2j, 12: 0.02j, -12: -0.02j}),
        P.triangle_phi(),
        oracle.SAW3,
    ]
    for b, lam in [(2, 0.7), (3, 0.5), (5, 0.3), (2, 0.51), (3, 0.34)]:
        p = make_params(b, lam)
        codes = [K.periodic_code(b, (1,), (0, b - 1)), K.periodic_code(b, (), (b - 1,)),
                 K.seeded_code(b, 7, 0)]
        xs = np.concatenate([np.linspace(-1, 2, 25), np.random.default_rng(b).random(16) * 3 - 1,
                             [1 / b, 1 - 1 / b, 1 / 3, 3 / 4]])
        for phi in phis:
            for code in codes:
                v = K.eval_y_vec(p, phi, xs, code)
                s = np.array([K.eval_y(p, phi, float(x), code) for x in xs])
                assert np.max(np.abs(v - s) / np.maximum(1.0, np.abs(s))) <= 1e-12, (b, phi, code)
                assert np.array_equal(K.eval_y(p, phi, xs.reshape(-1, 1), code)[:, 0], s)
                assert type(K.eval_y(p, phi, xs[3], code)) is float
                if isinstance(phi, P.PiecewisePhi):
                    continue
                for k in (1, 2):
                    d = [K.eval_y_deriv(p, phi, float(x), code, k) for x in xs]
                    assert np.array_equal(K.eval_y_deriv(p, phi, xs, code, k), d), (b, phi, k)


def test_kernel_vec_decides_knot_ties_exactly():
    """At (2, 0.7) on the code (1 0)^infinity, the three-piece wave has a
    knot at x = 1/3 at every even depth.  The float fl(1/3) lies below it,
    so there and at the float below, Y takes the pieces left of the knot,
    and at the float above, the pieces right of it.  A float compare with
    the rounded knot puts fl(1/3) on the wrong side."""
    p = _p2()
    code = K.periodic_code(2, (), (1, 0))
    xs = np.array([np.nextafter(1 / 3, 0), 1 / 3, np.nextafter(1 / 3, 1)])
    v = K.eval_y_vec(p, oracle.SAW3, xs, code)
    s = np.array([K.eval_y(p, oracle.SAW3, float(x), code) for x in xs])
    assert np.max(np.abs(v - s)) <= 1e-12 * np.max(np.abs(s))
    assert v[0] == v[1] != v[2]


def test_kernel_rejects_non_finite_points():
    """Gamma and Y refuse NaN and infinity at every entry point; the
    piecewise Y once returned a number for NaN."""
    p = _p2()
    code = K.seeded_code(2, 0)
    for phi in (P.cos_phi(), P.triangle_phi()):
        for bad in (math.nan, math.inf, -math.inf):
            for f in (K.eval_y, K.eval_gamma):
                with pytest.raises(ValueError, match="finite points"):
                    f(p, phi, bad, code)
            for f in (K.eval_y_vec, K.eval_gamma_vec):
                with pytest.raises(ValueError, match="finite points"):
                    f(p, phi, np.array([0.5, bad]), code)


def test_kernel_rejects_discontinuous_generator():
    with pytest.raises(ValueError, match="discontinuous"):
        K.eval_y(_p2(), P.rademacher_phi(), 0.3, K.seeded_code(2, 0))


def test_analytic_kernel_equals_w_derivative():
    """When W = cos(2 pi x), every code gives the same kernel, namely W'."""
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    xs = np.linspace(0, 1, 257)
    ref = -2 * np.pi * np.sin(2 * np.pi * xs)
    for code in [K.periodic_code(2, (), (1, 0)), K.seeded_code(2, 3)]:
        v = K.eval_y_vec(p, an, xs, code)
        assert np.max(np.abs(v - ref)) < 1e-8


def test_gamma_matches_quadrature():
    """Stable increments agree with adaptive quadrature of the kernel."""
    p = _p2()
    cos = P.cos_phi()
    code = K.periodic_code(2, (), (1, 0))
    for x in [0.3, 0.7, 1.0]:
        got = K.eval_gamma(p, cos, x, code)
        ref = oracle.quad_gamma(lambda t: K.eval_y(p, cos, t, code), x)
        assert abs(got - ref) < 1e-8


def test_gamma_prime_is_kernel():
    p = _p2()
    cos = P.cos_phi()
    code = K.seeded_code(2, 11)
    for x in [0.2, 0.5, 0.8]:
        cd = oracle.central_difference(
            lambda t: K.eval_gamma(p, cos, t, code), x, 1e-6
        )
        assert abs(cd - K.eval_y(p, cos, x, code)) < 1e-6


def test_gamma_at_zero_and_vectorized():
    p = _p2()
    cos = P.cos_phi()
    code = K.periodic_code(2, (), (0, 1))
    assert K.eval_gamma(p, cos, 0.0, code) == 0.0
    xs = np.random.default_rng(0).random(200)
    gv = K.eval_gamma_vec(p, cos, xs, code)
    gs = np.array([K.eval_gamma(p, cos, float(x), code) for x in xs])
    assert np.max(np.abs(gv - gs)) < 1e-9


def _gamma_loop(params, phi, xs, code, tol=1e-10):
    """Gamma per code as stable increments down to x / b^m < 2^-24, then x
    times the linear coefficient of the deeper depths: the sum that
    eval_gamma_many factors into a matrix product."""
    import weierlab.weier as W

    n = W.term_count(params.gamma, P.sup_deriv(phi, 1), tol)
    offs = K.code_offsets(code, n)
    n0 = 0
    while n0 < n and float(params.b) ** -n0 > 2.0**-24:
        n0 += 1
    piecewise = isinstance(phi, P.PiecewisePhi)
    diff = oracle.piecewise_diff if piecewise else P.phi_diff_vec
    out = np.zeros_like(xs)
    for m in range(1, n0 + 1):
        h = xs / float(params.b) ** m
        out -= params.lam**-m * diff(phi, float(offs[m - 1]), h)
    if piecewise:
        derivs = [oracle.piecewise_deriv_exact(phi, o) for o in K.code_offsets_exact(code, n)]
    else:
        derivs = [P.eval_phi(phi, float(o), 1) for o in offs]
    coef = sum(params.gamma**m * derivs[m - 1] for m in range(n0 + 1, n + 1))
    return out - coef * xs


@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.5), (5, 0.3), (7, 0.2), (10, 0.15),
                                    (2, 0.52), (2, 0.51)])
def test_eval_gamma_many_matches_per_code_sums(b, lam):
    """Every column equals the per-code increment sum to 1e-12 (relative to
    the column's size) and the exact scalar Gamma to 1e-9 plus the
    documented linearization bound.  lam = 0.52 at b = 2 needs about 700
    terms and lam = 0.51 about 1,450, past b^m and lam^-m in float range;
    3^9 points are not a whole number of row blocks.  The
    code (b-1)^infinity has offsets 1 - b^-m, which round to 1 in float,
    a breakpoint of the triangle wave, beyond m = 53 for b = 2."""
    params = make_params(b, lam)
    phis = [
        P.cos_phi(),
        P.cos_phi(0.3),
        P.FourierPhi({1: 0.5, -1: 0.5, 2: 0.1 + 0.2j, -2: 0.1 - 0.2j, 5: 0.03j, -5: -0.03j}),
        P.triangle_phi(),
    ]
    codes = [K.periodic_code(b, (1,), (0, b - 1)), K.periodic_code(b, (), (b - 1,)),
             K.seeded_code(b, 7, 0), K.seeded_code(b, 7, 1)]
    xs = np.random.default_rng(b).random(3**9)
    for phi in phis:
        got = K.eval_gamma_many(params, phi, xs, codes)
        assert got.shape == (len(xs), len(codes))
        lin = 0.0
        if isinstance(phi, P.FourierPhi):
            lin = (2.0**-24 * P.sup_deriv(phi, 2) * params.gamma**(24 / math.log2(b))
                   / (2.0 * (1.0 - params.gamma)))
        for j, code in enumerate(codes):
            ref = _gamma_loop(params, phi, xs, code)
            assert np.max(np.abs(got[:, j] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            for i in range(4):
                exact = K.eval_gamma(params, phi, float(xs[i]), code)
                assert abs(got[i, j] - exact) <= 1e-9 + lin


def test_eval_gamma_vec_piecewise_steps_across_breakpoint():
    """At (3, 0.5) the code 1^infinity has offsets o_m = 1/2 - 3^-m / 2, so
    for x > 1/2 every step x / 3^m crosses the triangle's breakpoint 1/2,
    also at the depths below 2^-24 that would otherwise be linear, and from
    m = 34 on float(o_m) is 1/2 itself.  The vector path equals the scalar
    one; at the parent it was 1.5e-3 off at x = 0.75."""
    params = make_params(3, 0.5)
    tri = P.triangle_phi()
    xs = np.array([-0.8, -0.3, 0.25, 0.5, 0.75, 0.9, 1.0, 1.7])
    for code in [K.periodic_code(3, (), (1,)), K.periodic_code(3, (2,), (1,))]:
        got = K.eval_gamma_vec(params, tri, xs, code)
        exact = np.array([K.eval_gamma(params, tri, float(x), code) for x in xs])
        assert np.max(np.abs(got - exact)) <= 1e-12


@pytest.mark.parametrize("b", [2, 3, 5, 7, 10])
def test_sin_vers_climb_matches_direct_sines(b):
    """Sine and versine climbed from the deepest depth of Gamma's factored
    sum, against 40-digit values at every depth; angles up to 5 pi, as for
    the fifth harmonic."""
    import mpmath

    n0 = 1 + int(24 / math.log2(b))
    x = np.random.default_rng(b).random(64) * 5.0
    sin_out, vers_out = np.empty((n0, len(x))), np.empty((n0, len(x)))
    K._sin_vers(math.pi * x / float(b) ** (n0 - 1), b, sin_out, vers_out)
    with mpmath.workdps(40):
        for r in range(n0):
            for i in range(0, len(x), 7):
                ang = mpmath.pi * mpmath.mpf(float(x[i])) / mpmath.mpf(b) ** r
                assert abs(sin_out[r, i] - float(mpmath.sin(ang))) <= 2e-14
                assert abs(vers_out[r, i] - float(1 - mpmath.cos(ang))) <= 2e-14


def test_eval_gamma_many_empty_and_zero():
    params = _p2()
    codes = [K.seeded_code(2, 1), K.periodic_code(2, (), (0, 1))]
    assert K.eval_gamma_many(params, P.cos_phi(), np.array([]), codes).shape == (0, 2)
    zero = K.eval_gamma_many(params, P.zero_phi(), np.linspace(0, 1, 100), codes)
    assert zero.shape == (100, 2) and not zero.any()


def test_gamma_first_order_at_tiny_arguments():
    """Far below machine epsilon the increment linearizes without noise."""
    p = _p2()
    cos = P.cos_phi()
    code = K.periodic_code(2, (), (1, 0))
    x = 2.0**-100
    y0 = K.eval_y(p, cos, 0.0, code)
    got = K.eval_gamma(p, cos, x, code)
    assert got == pytest.approx(x * y0, rel=1e-12)


def test_apply_ifs_preserves_graph():
    """Graph points map to graph points under every branch map.

    Points with short mantissas keep (x + i) / b exact; a generic float
    would shift by an ulp and the rough graph amplifies that to 1e-8.
    """
    import weierlab.weier as W

    p = _p2()
    cos = P.cos_phi()
    for x in [0.125, 0.6875, 0.3125]:
        y = W.eval_w(p, cos, x)
        for i in range(2):
            xn, yn = K.apply_ifs(p, cos, i, x, y)
            assert yn == pytest.approx(W.eval_w(p, cos, xn), abs=1e-11)
    with pytest.raises(ValueError):
        K.apply_ifs(p, cos, 2, 0.1, 0.0)


def test_apply_word_digit_convention():
    """The word gives the base-b digits of the image cell, leading digit first."""
    p = _p2()
    cos = P.cos_phi()
    x, y = 0.3, -0.2
    xn, _ = K.apply_word(p, cos, (1, 0), x, y)
    assert xn == pytest.approx((x + 0 + 1 * 2) / 4)
    xe, ye = K.apply_word(p, cos, (), x, y)
    assert (xe, ye) == (x, y)


def test_transition_identity():
    """pi(g_u p) = lam^|u| pi_shifted(p) + pi(g_u 0) over random data."""
    p = _p2()
    cos = P.cos_phi()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(120):
        length = int(rng.integers(1, 7))
        word = tuple(int(t) for t in rng.integers(0, 2, length))
        x, y = float(rng.random()), float(rng.random()) * 4 - 2
        code = K.seeded_code(2, int(i))
        worst = max(worst, K.transition_residual(p, cos, word, code, x, y))
    assert worst < 1e-11


def test_apply_word_on_arrays_matches_points():
    """Pushing whole arrays through a word equals pushing each point alone,
    bit for bit."""
    p = make_params(3, 0.5)
    rng = np.random.default_rng(5)
    xs, ys = rng.random(40), rng.random(40) * 4 - 2
    for phi in (P.cos_phi(0.3), P.triangle_phi()):
        for word in [(), (2,), (0, 1, 2, 1)]:
            gx, gy = K.apply_word(p, phi, word, xs, ys)
            pts = [K.apply_word(p, phi, word, float(x), float(y)) for x, y in zip(xs, ys)]
            assert gx.tolist() == [a for a, _ in pts]
            assert gy.tolist() == [b for _, b in pts]


def test_piecewise_kernel_takes_pieces_from_exact_offsets():
    """The code 1^infinity has offsets o_m = 1 - 2^-m, so the triangle's
    argument x / 2^m + o_m = 1 - 0.7 2^-m at x = 0.3 lies in the falling
    piece at every depth, and Y = gamma / (1 - gamma) = 2.5 up to tol; past
    m = 53 its float rounds onto the breakpoint 1."""
    p = make_params(2, 0.7)
    tri = P.triangle_phi()
    code = K.periodic_code(2, (), (1,))
    exact = p.gamma / (1.0 - p.gamma)
    assert abs(K.eval_y(p, tri, 0.3, code, 1e-10) - exact) <= 1e-10
    assert np.max(np.abs(K.eval_y_vec(p, tri, np.full(3, 0.3), code, 1e-10) - exact)) <= 1e-10


def test_transition_identity_triangle():
    p = make_params(2, 0.6)
    tri = P.triangle_phi()
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(40):
        length = int(rng.integers(1, 5))
        word = tuple(int(t) for t in rng.integers(0, 2, length))
        code = K.seeded_code(2, int(i))
        worst = max(worst, K.transition_residual(
            p, tri, word, code, float(rng.random()), float(rng.random())))
    assert worst < 1e-11


def test_separation_sup_basic():
    p = _p2()
    cos = P.cos_phi()
    u = K.periodic_code(2, (0,), (0, 1))
    v = K.periodic_code(2, (1,), (0, 1))
    r = K.separation_sup(p, cos, u, v, 1 << 10)
    assert not r.identical
    assert r.sup > 1.0
    same = K.separation_sup(p, cos, u, u)
    assert same.identical and same.sup == 0.0
    raw = K.separation_sup(p, cos, u, v, 1 << 10, refine=False)
    assert r.sup >= raw.sup - 1e-12


def test_separation_sup_analytic_degenerate():
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    u = K.periodic_code(2, (0,), (0, 1))
    v = K.periodic_code(2, (1,), (0, 1))
    r = K.separation_sup(p, an, u, v, 1 << 10)
    assert r.sup < 1e-8


def test_condition_h_scan_classifications():
    """Rough cosine scans as distinct directions, the analytic twin as merged."""
    p = _p2()
    rough = K.condition_h_scan(p, P.cos_phi(), depth=1, samples_per_pair=2,
                               grid_size=1 << 10)
    assert rough.classification == "H-evidence"
    assert rough.min_sep > 1e-6
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    smooth = K.condition_h_scan(p, an, depth=1, samples_per_pair=2,
                                grid_size=1 << 10)
    assert smooth.classification == "H*-evidence"
    assert smooth.max_sep < 1e-8


def test_condition_h_scan_thresholds_rise_to_the_floor():
    """The report keeps the thresholds it judged by: eps_h and eps_star,
    each raised to the degenerate floor 2 tol where that is larger."""
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    for tol, eps_h, eps_star in [(1e-10, 1e-6, 1e-8), (1e-7, 1e-6, 2e-7), (1e-6, 2e-6, 2e-6)]:
        rep = K.condition_h_scan(p, an, depth=1, samples_per_pair=1, grid_size=1 << 8,
                                 tol=tol)
        assert (rep.eps_h, rep.eps_star) == (eps_h, eps_star)
        assert rep.classification == "H*-evidence", tol


def test_h_scan_csv():
    p = _p2()
    rep = K.condition_h_scan(p, P.cos_phi(), depth=1, samples_per_pair=1,
                             grid_size=1 << 8)
    lines = K.h_scan_to_csv(rep).strip().splitlines()
    assert lines[0] == "u_prefix,v_prefix,seed,sep"
    assert len(lines) == 1 + len(rep.rows)
    for row in lines[1:]:
        ua, vb, s, sep = row.split(",")
        int(s)
        float(sep)


def test_k_regularity_reports():
    p = _p2()
    cos = P.cos_phi()
    u = K.periodic_code(2, (0,), (0, 1))
    v = K.periodic_code(2, (1,), (0, 1))
    rep = K.k_regularity(p, cos, u, v, level=1, k_max=3)
    assert len(rep.rows) == 2
    assert not rep.degenerate
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    rep2 = K.k_regularity(p, an, u, v, level=1, k_max=2)
    assert rep2.degenerate
    tri = K.k_regularity(make_params(2, 0.6), P.triangle_phi(), u, v, level=1, k_max=3)
    assert tri.truncated_k == 1


def test_degenerate_floor_follows_tol():
    """The analytic twin's kernel differences are truncation noise, about
    2e-11 at tol 1e-10: inside the floor 2 tol they read as degenerate,
    where a fixed 1e-13 floor took them for a real difference."""
    p = _p2()
    an = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    u = K.periodic_code(2, (1,), (0, 1))
    rep = K.k_regularity(p, an, u, K.seeded_code(2, 7, 0), level=1, k_max=1, tol=1e-10)
    assert rep.degenerate
    assert all(k is None and 0.0 < sup <= 2e-10 for _, k, _, sup in rep.rows)
    cert = K.transversality_certificate(p, an, K.transversality_pairs(p, count=4), 2, 1e-9)
    assert cert.rho0_hat == 0.0
    assert all(entry["identical"] for entry in cert.per_pair)


def test_transversality_pairs_and_certificate():
    p = _p2()
    pairs = K.transversality_pairs(p, count=4)
    assert len(pairs) == 4
    for u, v in pairs:
        assert u.symbol(0) != v.symbol(0)
    rep = K.transversality_certificate(p, P.cos_phi(), pairs, l0=2)
    assert 0.0 < rep.rho0_hat <= 1.0
    assert rep.rho0_hat <= rep.median_ratio <= 1.0
    for entry in rep.per_pair:
        assert 0.0 <= entry["ratio"] <= 1.0
        assert entry["lhs"] <= entry["rhs_sup"] + 1e-12


def test_transversality_identical_pair_scores_zero():
    p = _p2()
    u = K.periodic_code(2, (), (0, 1))
    rep = K.transversality_certificate(p, P.cos_phi(), [(u, u)], l0=1)
    assert rep.per_pair[0]["identical"]
    assert rep.rho0_hat == 0.0


def test_transversality_stability_and_csv():
    p = _p2()
    pairs = K.transversality_pairs(p, count=2)
    level, history = K.transversality_stability(p, P.cos_phi(), pairs, l0_max=3)
    assert 1 <= level <= 3
    assert set(history) == {1, 2, 3}
    assert all(history[l0].l0 == l0 for l0 in history)
    rep = history[2]
    csv = K.certificate_to_csv(rep)
    assert csv == K.certificate_to_csv(K.transversality_certificate(p, P.cos_phi(), pairs, l0=2))
    lines = csv.strip().splitlines()
    assert lines[0] == "interval_index,inf,sup"
    assert len(lines) == 1 + 4
    for row in lines[1:]:
        idx, lo, hi = row.split(",")
        int(idx)
        assert 0.0 <= float(lo) <= float(hi)
