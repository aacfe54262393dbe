"""Generator construction, evaluation, differences, and renormalization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weierlab.phi as P


def test_cos_matches_closed_form():
    """The cosine generator evaluates to cos(2 pi x) on a dense grid."""
    phi = P.cos_phi()
    xs = np.linspace(0, 1, 257)
    assert np.max(np.abs(P.eval_phi(phi, xs) - np.cos(2 * np.pi * xs))) < 1e-14


def test_cos_phase_shift():
    """The phase argument is an additive angle in radians."""
    phi = P.cos_phi(0.25)
    xs = np.linspace(0, 1, 64, endpoint=False)
    ref = np.cos(2 * np.pi * xs + 0.25)
    assert np.max(np.abs(P.eval_phi(phi, xs) - ref)) < 1e-14


def test_derivatives_of_cos():
    """First and second derivatives match the sign-and-scale rules."""
    phi = P.cos_phi()
    xs = np.linspace(0, 1, 64, endpoint=False)
    d1 = P.eval_phi(phi, xs, deriv=1)
    d2 = P.eval_phi(phi, xs, deriv=2)
    assert np.max(np.abs(d1 + 2 * np.pi * np.sin(2 * np.pi * xs))) < 1e-12
    assert np.max(np.abs(d2 + (2 * np.pi) ** 2 * np.cos(2 * np.pi * xs))) < 1e-11


def test_triangle_shape_and_seams():
    """The triangle wave is the distance to the nearest integer."""
    tri = P.triangle_phi()
    assert P.eval_phi(tri, 0.0) == 0.0
    assert P.eval_phi(tri, 0.5) == pytest.approx(0.5)
    assert P.eval_phi(tri, 0.25) == pytest.approx(0.25)
    assert P.eval_phi(tri, 0.75) == pytest.approx(0.25)
    assert tri.smoothness == 0
    assert P.sup_deriv(tri, 1) == pytest.approx(1.0)


def test_rademacher_is_discontinuous():
    rad = P.rademacher_phi()
    assert rad.smoothness == -1
    assert P.eval_phi(rad, 0.25) == 1.0
    assert P.eval_phi(rad, 0.75) == -1.0


def test_const_and_zero():
    assert P.eval_phi(P.const_phi(2.5), 0.37) == 2.5
    xs = np.linspace(0, 1, 11)
    assert np.all(P.eval_phi(P.zero_phi(), xs) == 0.0)


def test_sup_deriv_cos_values():
    """Sup norms of cos derivatives are the powers of 2 pi."""
    phi = P.cos_phi()
    assert P.sup_deriv(phi, 0) == pytest.approx(1.0)
    assert P.sup_deriv(phi, 1) == pytest.approx(2 * np.pi)
    assert P.sup_deriv(phi, 3) == pytest.approx((2 * np.pi) ** 3)


def test_phi_diff_vec_matches_direct():
    """phi(o + h) - phi(o) agrees with direct evaluation for cos and triangle."""
    rng = np.random.default_rng(0)
    hs = rng.random(200) * 0.3
    for phi in [P.cos_phi(), P.triangle_phi()]:
        o = 0.4375
        direct = P.eval_phi(phi, (o + hs) % 1.0) - P.eval_phi(phi, o)
        got = P.phi_diff_vec(phi, o, hs)
        assert np.max(np.abs(got - direct)) < 1e-12


def test_phi_diff_vec_cancellation():
    """Tiny increments keep relative accuracy instead of cancelling."""
    phi = P.cos_phi()
    h = np.array([1e-13])
    got = P.phi_diff_vec(phi, 0.123, h)[0]
    exact = -2 * math.pi * math.sin(2 * math.pi * 0.123) * 1e-13
    assert got == pytest.approx(exact, rel=1e-6)


_DIFF_PHIS = [
    P.cos_phi(),
    P.cos_phi(0.3),
    P.FourierPhi({1: 0.5, -1: 0.5, 2: 0.1 + 0.2j, -2: 0.1 - 0.2j, 5: 0.03j, -5: -0.03j}),
    P.triangle_phi(),
]


def test_phi_diff_vec_broadcasts_elementwise():
    """One increment for every shape: o array with h scalar, o scalar with
    h array, o column against h row.  Fourier entries equal their scalar
    calls bit for bit; triangle entries match the exact rational difference
    to 1e-15, for the offsets just below 1/2 and 1 that small steps carry
    across a breakpoint too."""
    hs = np.array([0.0, -0.2, -1e-9, 1e-9, 2.0**-15, 0.37])
    os_ = np.concatenate([np.random.default_rng(1).random(12),
                          [0.5 - 1e-10, 0.5 - 2.0**-16, 1.0 - 1e-12, 0.25, 0.5]])
    for phi in _DIFF_PHIS:
        grid = P.phi_diff_vec(phi, os_[:, None], hs[None, :])
        assert grid.shape == (len(os_), len(hs))
        for j, h in enumerate(hs):
            assert np.array_equal(P.phi_diff_vec(phi, os_, h), grid[:, j])
        for i, o in enumerate(os_):
            assert np.array_equal(P.phi_diff_vec(phi, o, hs), grid[i])
        if isinstance(phi, P.PiecewisePhi):
            exact = np.array([[float(P._piecewise_diff(phi, Fraction(o), Fraction(h)))
                               for h in hs] for o in os_])
            assert np.max(np.abs(grid - exact)) <= 1e-15
        else:
            scalar = np.array([[P.phi_diff_vec(phi, o, h) for h in hs] for o in os_])
            assert np.array_equal(grid, scalar)


def test_phi_diff_exact_fractions():
    """At dyadic floats the triangle's increments come out exact, for steps
    within a piece, onto a breakpoint, and small ones across it."""
    tri = P.triangle_phi()
    assert P.phi_diff_vec(tri, 0.125, 0.125) == 0.125
    assert P.phi_diff_vec(tri, 0.0, 0.5) == 0.5
    assert P.phi_diff_vec(tri, 0.75, 0.25) == -0.25
    assert P.phi_diff_vec(tri, 0.5 - 2.0**-20, 2.0**-18) == -(2.0**-19)
    assert P.phi_diff_vec(tri, 1.0 - 2.0**-20, 2.0**-18) == 2.0**-19


def test_renormalize_keeps_multiples():
    """Frequency filtering keeps exactly the multiples of p, reindexed."""
    f = P.FourierPhi({1: 1.0 + 0j, 2: 0.5 + 0j, 4: 0.25 + 0j}, real_valued=False)
    r2 = P.renormalize(f, 2)
    assert set(r2.coeffs) == {1, 2}
    assert r2.coeffs[1] == pytest.approx(0.5 + 0j)
    assert r2.coeffs[2] == pytest.approx(0.25 + 0j)


def test_renormalize_kills_pure_cosine():
    """cos has only frequencies +-1, so every p >= 2 filter collapses it."""
    r = P.renormalize(P.cos_phi(), 3)
    assert r.coeffs == {}
    xs = np.linspace(0, 1, 9)
    assert np.all(P.eval_phi(r, xs) == 0.0)


def test_renormalize_rejects_piecewise():
    with pytest.raises(TypeError):
        P.renormalize(P.triangle_phi(), 2)
    with pytest.raises(ValueError):
        P.renormalize(P.cos_phi(), 1)


def test_rescale_then_renormalize_is_identity():
    """Renormalizing an upscaled generator recovers the original exactly."""
    f = P.FourierPhi({0: 0.5 + 0j, 1: 1.0 + 0j, 3: -0.25 + 0j}, real_valued=False)
    for p in [2, 3, 5]:
        back = P.renormalize(P.rescale(f, p), p)
        assert set(back.coeffs) == set(f.coeffs)
        for k, v in f.coeffs.items():
            assert back.coeffs[k] == pytest.approx(v)


def test_pre_renormalize_keeps_multiples_in_place():
    """The in-place filter retains p-divisible frequencies at their index."""
    f = P.FourierPhi({1: 1.0 + 0j, 2: 0.5 + 0j, 6: 0.125 + 0j}, real_valued=False)
    p = 2
    pre = P.pre_renormalize(f, p)
    assert set(pre.coeffs) == {2, 6}
    compressed = P.renormalize(f, p)
    assert set(compressed.coeffs) == {k // p for k in pre.coeffs}
    for k in pre.coeffs:
        assert compressed.coeffs[k // p] == pytest.approx(pre.coeffs[k])


def test_s_p_complements_pre_renormalize():
    """s_p keeps the frequencies the in-place filter drops, and vice versa."""
    f = P.FourierPhi({2: 1.0 + 0j, 3: 1.0 + 0j, 4: 2.0 + 0j}, real_valued=False)
    s2 = P.s_p(f, 2)
    assert set(s2.coeffs) == {3}
    pre = P.pre_renormalize(f, 2)
    assert set(pre.coeffs) | set(s2.coeffs) == set(f.coeffs)
    xs = np.linspace(0, 1, 33, endpoint=False)
    recon = P.eval_phi(pre, xs) + P.eval_phi(s2, xs)
    assert np.max(np.abs(recon - P.eval_phi(f, xs))) < 1e-12


def test_real_valued_requires_conjugate_symmetry():
    with pytest.raises(ValueError, match="conjugate"):
        P.FourierPhi({1: 1.0 + 0j}, real_valued=True)


def test_phi_from_w0_telescopes():
    """phi = w0 - lam w0(b x) reconstructs w0 as its limit function sum."""
    w0 = P.cos_phi()
    b, lam = 2, 0.7
    phi = P.phi_from_w0(w0, b, lam)
    xs = np.linspace(0, 1, 97, endpoint=False)
    total = np.zeros_like(xs)
    for n in range(120):
        total += lam**n * P.eval_phi(phi, (b**n * xs) % 1.0)
    assert np.max(np.abs(total - np.cos(2 * np.pi * xs))) < 1e-10


def test_text_roundtrip():
    """Serialization reproduces generators exactly in both families."""
    for phi in [P.cos_phi(0.2),
                P.FourierPhi({0: 1 + 0j, 3: 0.5 - 0.25j}, real_valued=False),
                P.triangle_phi()]:
        back = P.phi_from_text(P.phi_to_text(phi))
        xs = np.linspace(0, 1, 33, endpoint=False)
        assert np.max(np.abs(P.eval_phi(back, xs) - P.eval_phi(phi, xs))) < 1e-15


def test_parse_phi_spec_forms():
    assert P.parse_phi_spec("cos").coeffs
    assert P.eval_phi(P.parse_phi_spec("const:2"), 0.1) == 2.0
    assert P.parse_phi_spec("triangle").smoothness == 0
    with pytest.raises(ValueError):
        P.parse_phi_spec("nonsense-generator")


@given(st.floats(0, 1, allow_nan=False), st.floats(0, 0.49, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_diff_linearity_property(o, h):
    """phi(o + 2h) - phi(o) splits as two single-step differences."""
    phi = P.cos_phi()
    two_step = P.phi_diff_vec(phi, o, np.array([2 * h]))[0]
    a = P.phi_diff_vec(phi, o, np.array([h]))[0]
    bstep = P.phi_diff_vec(phi, (o + h) % 1.0, np.array([h]))[0]
    assert two_step == pytest.approx(a + bstep, abs=1e-11)
