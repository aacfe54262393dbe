"""Generator construction, evaluation, differences, and renormalization."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weierlab.phi as P

import oracle


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
    """phi(o + h) - phi(o) agrees with direct evaluation for cos, and the
    exact ``_piecewise_diff`` for the triangle."""
    rng = np.random.default_rng(0)
    hs = rng.random(200) * 0.3
    o = 0.4375
    for phi in [P.cos_phi(), P.triangle_phi()]:
        direct = P.eval_phi(phi, (o + hs) % 1.0) - P.eval_phi(phi, o)
        if isinstance(phi, P.PiecewisePhi):
            got = np.array([float(P._piecewise_diff(phi, Fraction(o), Fraction(h))) for h in hs])
        else:
            got = P.phi_diff_vec(phi, o, hs)
        assert np.max(np.abs(got - direct)) < 1e-12


def test_phi_diff_vec_refuses_piecewise_data():
    with pytest.raises(TypeError, match="Fourier"):
        P.phi_diff_vec(P.triangle_phi(), 0.25, 0.1)


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
    calls bit for bit.  For the triangle the vectorized increment is the
    test oracle's, which must match the exact rational ``_piecewise_diff``
    to 1e-15, for the offsets just below 1/2 and 1 that small steps carry
    across a breakpoint too."""
    hs = np.array([0.0, -0.2, -1e-9, 1e-9, 2.0**-15, 0.37])
    os_ = np.concatenate([np.random.default_rng(1).random(12),
                          [0.5 - 1e-10, 0.5 - 2.0**-16, 1.0 - 1e-12, 0.25, 0.5]])
    for phi in _DIFF_PHIS:
        diff = oracle.piecewise_diff if isinstance(phi, P.PiecewisePhi) else P.phi_diff_vec
        grid = diff(phi, os_[:, None], hs[None, :])
        assert grid.shape == (len(os_), len(hs))
        for j, h in enumerate(hs):
            assert np.array_equal(diff(phi, os_, h), grid[:, j])
        for i, o in enumerate(os_):
            assert np.array_equal(diff(phi, o, hs), grid[i])
        if isinstance(phi, P.PiecewisePhi):
            exact = np.array([[float(P._piecewise_diff(phi, Fraction(o), Fraction(h)))
                               for h in hs] for o in os_])
            assert np.max(np.abs(grid - exact)) <= 1e-15
        else:
            scalar = np.array([[P.phi_diff_vec(phi, o, h) for h in hs] for o in os_])
            assert np.array_equal(grid, scalar)


def test_piecewise_diff_keeps_jumps():
    """A small step across a jump of the Rademacher wave changes it by the
    jump, as a wide step does; the exact reference summed slopes alone and
    returned 0 for the step across 1/2."""
    rad = P.rademacher_phi()
    assert P._piecewise_diff(rad, Fraction(0.5 - 1e-9), Fraction(2e-9)) == -2
    assert P._piecewise_diff(rad, Fraction(0.5 + 1e-9), Fraction(-2e-9)) == 2
    assert P._piecewise_diff(rad, Fraction(1.0 - 1e-9), Fraction(2e-9)) == 2
    assert P._piecewise_diff(rad, Fraction(1, 4), Fraction(1, 2)) == -2
    assert P._piecewise_diff(rad, Fraction(1, 4), Fraction(1)) == 0


def test_phi_diff_exact_fractions():
    """At dyadic floats the triangle's increments come out exact, for steps
    within a piece, onto a breakpoint, and small ones across it."""
    tri = P.triangle_phi()

    def diff(o: float, h: float) -> Fraction:
        return P._piecewise_diff(tri, Fraction(o), Fraction(h))

    assert diff(0.125, 0.125) == 0.125
    assert diff(0.0, 0.5) == 0.5
    assert diff(0.75, 0.25) == -0.25
    assert diff(0.5 - 2.0**-20, 2.0**-18) == -(2.0**-19)
    assert diff(1.0 - 2.0**-20, 2.0**-18) == 2.0**-19


def test_renormalize_keeps_multiples():
    """Frequency filtering keeps exactly the multiples of p, reindexed."""
    f = P.FourierPhi({1: 1.0 + 0j, 2: 0.5 + 0j, 4: 0.25 + 0j,
                      -1: 1.0 + 0j, -2: 0.5 + 0j, -4: 0.25 + 0j})
    r2 = P.renormalize(f, 2)
    assert set(r2.coeffs) == {-2, -1, 1, 2}
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
    f = P.FourierPhi({0: 0.5 + 0j, 1: 1.0 + 0j, 3: -0.25 + 0j, -1: 1.0 + 0j, -3: -0.25 + 0j})
    for p in [2, 3, 5]:
        back = P.renormalize(P.rescale(f, p), p)
        assert set(back.coeffs) == set(f.coeffs)
        for k, v in f.coeffs.items():
            assert back.coeffs[k] == pytest.approx(v)


def test_pre_renormalize_keeps_multiples_in_place():
    """The in-place filter retains p-divisible frequencies at their index."""
    f = P.FourierPhi({1: 1.0 + 0j, 2: 0.5 + 0j, 6: 0.125 + 0j,
                      -1: 1.0 + 0j, -2: 0.5 + 0j, -6: 0.125 + 0j})
    p = 2
    pre = P.pre_renormalize(f, p)
    assert set(pre.coeffs) == {-6, -2, 2, 6}
    compressed = P.renormalize(f, p)
    assert set(compressed.coeffs) == {k // p for k in pre.coeffs}
    for k in pre.coeffs:
        assert compressed.coeffs[k // p] == pytest.approx(pre.coeffs[k])


def test_s_p_complements_pre_renormalize():
    """s_p keeps the frequencies the in-place filter drops, and vice versa."""
    f = P.FourierPhi({2: 1.0 + 0j, 3: 1.0 + 0j, 4: 2.0 + 0j,
                      -2: 1.0 + 0j, -3: 1.0 + 0j, -4: 2.0 + 0j})
    s2 = P.s_p(f, 2)
    assert set(s2.coeffs) == {-3, 3}
    pre = P.pre_renormalize(f, 2)
    assert set(pre.coeffs) | set(s2.coeffs) == set(f.coeffs)
    xs = np.linspace(0, 1, 33, endpoint=False)
    recon = P.eval_phi(pre, xs) + P.eval_phi(s2, xs)
    assert np.max(np.abs(recon - P.eval_phi(f, xs))) < 1e-12


def test_real_valued_requires_conjugate_symmetry():
    with pytest.raises(ValueError, match="conjugate"):
        P.FourierPhi({1: 1.0 + 0j})


def test_piecewise_pieces_are_linear():
    """A piece longer than (a0, a1) is refused at construction."""
    with pytest.raises(ValueError, match="linear"):
        P.PiecewisePhi(kind="bump", breakpoints=(0, Fraction(1, 2), 1),
                       coeffs=((0, 0, 4), (0, 0, 0)))


def test_piecewise_smoothness_is_derived():
    """0 when the pieces join at every breakpoint, the wrap from 1 to 0
    included; -1 for a jump, also one at the wrap alone."""
    q = Fraction(1, 4)
    saw = P.PiecewisePhi(kind="saw", breakpoints=(0, q, 1),
                         coeffs=((0, 4), (Fraction(4, 3), Fraction(-4, 3))))
    assert saw.smoothness == 0
    assert P.sup_deriv(saw, 0) == 1.0 and P.sup_deriv(saw, 1) == 4.0
    assert P.eval_phi(saw, 0.125) == 0.5 and P.eval_phi(saw, 0.5, 1) == -4 / 3
    step = P.PiecewisePhi(kind="step", breakpoints=(0, q, 1),
                          coeffs=((0, 4), (2, Fraction(-4, 3))))
    ramp = P.PiecewisePhi(kind="ramp", breakpoints=(0, 1), coeffs=((0, 1),))
    for jump in (step, ramp):
        assert jump.smoothness == -1
        with pytest.raises(ValueError, match="order 1 unsupported"):
            P.eval_phi(jump, 0.5, 1)
    with pytest.raises(ValueError, match="order 2 unsupported"):
        P.sup_deriv(saw, 2)


def test_fourier_rejects_non_finite_input():
    """NaN and infinity are refused with the frequency they sit at, where
    a NaN coefficient used to be dropped as if it were zero."""
    for coeffs, freq in [({0: math.nan}, 0), ({0: math.inf}, 0),
                         ({1: 0.5, -1: complex(0.5, math.nan)}, -1)]:
        with pytest.raises(ValueError, match=f"frequency {freq} is not finite"):
            P.FourierPhi(coeffs)
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="frequency 1 is not finite"):
            P.cos_phi(theta)


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
                P.FourierPhi({0: 1 + 0j, 3: 0.5 - 0.25j, -3: 0.5 + 0.25j}),
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


def _mp_signed_sum(phi, x, deriv):
    """Re sum_k c_k (2 pi i k)^deriv e^{2 pi i k x} over the signed table, 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        total = mpmath.mpc(0)
        for k, c in phi.coeffs.items():
            total += mpmath.mpc(c) * (2j * mpmath.pi * k) ** deriv * mpmath.expjpi(2 * k * x)
        return float(total.real)


def _mp_signed_diff(phi, o, h):
    """Re sum_k c_k (e^{2 pi i k (o + h)} - e^{2 pi i k o}), 40 digits."""
    with mpmath.workdps(40):
        o, h = mpmath.mpf(float(o)), mpmath.mpf(float(h))
        total = mpmath.mpc(0)
        for k, c in phi.coeffs.items():
            total += mpmath.mpc(c) * mpmath.expjpi(2 * k * o) * mpmath.expm1(2j * mpmath.pi * k * h)
        return float(total.real)


# c_-k = conj c_k only to within 4e-10, inside the accepted 1e-9: the real
# form must use w_k = c_k + conj c_-k, where 2 Re c_k alone is 4e-10 off.
_SKEW = P.FourierPhi({0: 0.25, 1: 0.5 + 0.1j, -1: 0.5 - 0.1j + 4e-10,
                      2: -0.2 + 0.3j, -2: -0.2 - 0.3j + 4e-10j,
                      5: 0.05j, -5: -0.05j - 3e-10})


@pytest.mark.parametrize("phi", [P.phi_from_w0(P.cos_phi(), 2, 0.7),
                                 P.phi_from_w0(P.cos_phi(), 3, 0.7), _SKEW],
                         ids=["w0_b2", "w0_b3", "skew"])
def test_real_form_matches_signed_table(phi):
    """eval_phi at orders 0-3 and phi_diff_vec agree with high-precision sums
    of the signed table to 1e-13 of their scales: sup|phi^(d)| for values,
    and for increments the bound min(2 sup|phi|, |h| sup|phi'|)."""
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.0, 2.0, 120)
    hs = rng.choice([-1.0, 1.0], 120) * 10.0 ** rng.uniform(-12, 0, 120)
    for d in range(4):
        ref = np.array([_mp_signed_sum(phi, x, d) for x in xs])
        assert np.max(np.abs(P.eval_phi(phi, xs, d) - ref)) <= 1e-13 * P.sup_deriv(phi, d)
    ref = np.array([_mp_signed_diff(phi, o, h) for o, h in zip(xs, hs)])
    scale = np.minimum(2.0 * P.sup_deriv(phi, 0), np.abs(hs) * P.sup_deriv(phi, 1))
    assert np.all(np.abs(P.phi_diff_vec(phi, xs, hs) - ref) <= 1e-13 * scale)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_cos_is_its_closed_form_bit_for_bit():
    """cos_phi(theta) is the one-term real form with amplitude 1.0 and its
    given phase, so eval_phi and phi_diff_vec return the closed forms
    (2 pi)^d cos(2 pi x + theta + d pi / 2) and -2 sin(pi h) sin(2 pi o +
    theta + pi h) bit for bit, signed zeros included."""
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1.0, 2.0, 4096)
    hs = np.concatenate([[0.0, -0.0], rng.uniform(-1, 1, 4094) * 10.0 ** rng.uniform(-20, 0, 4094)])
    two_pi = 2.0 * math.pi
    for theta in [0.0, 0.25, 0.3, *rng.uniform(-10.0, 10.0, 6)]:
        phi = P.cos_phi(theta)
        for d in range(4):
            closed = two_pi**d * np.cos(two_pi * xs + theta + d * math.pi / 2.0)
            assert np.array_equal(_bits(P.eval_phi(phi, xs, d)), _bits(closed))
        closed = -2.0 * np.sin(math.pi * hs) * np.sin(two_pi * xs + theta + math.pi * hs)
        assert np.array_equal(_bits(P.phi_diff_vec(phi, xs, hs)), _bits(closed))
        assert [P.sup_deriv(phi, d) for d in range(4)] == [two_pi**d for d in range(4)]
