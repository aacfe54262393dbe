"""Limit function: evaluation, self-affinity, coefficients, and energies."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weierlab.phi as P
import weierlab.weier as W
from weierlab import make_params

import oracle


def test_make_params_fields():
    """Derived quantities follow the closed forms in the parameter range."""
    p = make_params(2, 0.7)
    assert p.b == 2 and p.lam == 0.7
    assert p.gamma == pytest.approx(1.0 / 1.4)
    assert p.dim == pytest.approx(2.0 + math.log(0.7) / math.log(2))
    assert p.holder_exp == pytest.approx(2.0 - p.dim)
    assert 1.0 / p.b < p.gamma < 1.0


def test_make_params_validation():
    with pytest.raises(ValueError, match="lam"):
        make_params(2, 0.4)
    with pytest.raises(ValueError, match="lam"):
        make_params(2, 1.0)
    with pytest.raises(ValueError):
        make_params(1, 0.7)


def test_term_count_rejects_bad_tol():
    """Checked before the sup <= 0 shortcut, so a zero generator is no exception."""
    for sup in (1.0, 0.0):
        for tol in (math.inf, math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="tol must be a finite positive number"):
                W.term_count(0.5, sup, tol)


def test_w_matches_high_precision_sum():
    """Scalar evaluation agrees with a 50-digit independent partial sum."""
    cos = P.cos_phi()
    for b, lam in [(2, 0.7), (3, 0.55)]:
        p = make_params(b, lam)
        for x in [0.0, 1 / 3, 0.123456789, 0.9999, 0.5]:
            ref = oracle.mp_w_cos(b, lam, x)
            assert abs(W.eval_w(p, cos, x) - ref) < 5e-12


def test_w_with_phase_matches_oracle():
    p = make_params(2, 0.7)
    phi = P.cos_phi(0.3)
    for x in [0.0, 0.37, 0.777]:
        assert abs(W.eval_w(p, phi, x) - oracle.mp_w_cos(2, 0.7, x, theta=0.3)) < 5e-12


def test_w_at_zero_closed_form():
    """All terms hit cos(0), so W(0) is the geometric sum 1/(1 - lam)."""
    p = make_params(2, 0.7)
    assert W.eval_w(p, P.cos_phi(), 0.0) == pytest.approx(1.0 / 0.3, abs=1e-11)


def test_w_vec_agrees_with_scalar():
    """The vectorized path keeps exact integer phases in every base."""
    rng = np.random.default_rng(0)
    xs = rng.random(300)
    cos = P.cos_phi()
    for b, lam in [(2, 0.7), (3, 0.55)]:
        p = make_params(b, lam)
        scalar = np.array([W.eval_w(p, cos, float(x)) for x in xs])
        assert np.max(np.abs(W.eval_w_vec(p, cos, xs) - scalar)) < 1e-13


@given(st.sampled_from([2, 3, 5, 7, 10]), st.floats(0.0, 1.0),
       st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_w_vec_exact_for_every_base(b, where, xs):
    """Vector and scalar W agree at tol 1e-12 on arbitrary floats, tiny and
    negative ones included, for lam up to 0.95 (ROADMAP defect D2: a float
    orbit t -> frac(b t) was off by 0.16 at (3, 0.9))."""
    p = make_params(b, 1.0 / b + 1e-3 + where * (0.95 - 1.0 / b - 1e-3))
    for phi in (P.cos_phi(), P.triangle_phi()):
        vec = W.eval_w_vec(p, phi, np.array(xs), 1e-12)
        scalar = [W.eval_w(p, phi, x, 1e-12) for x in xs]
        assert np.max(np.abs(vec - scalar)) < 1e-12


def test_w_vec_rejects_non_finite_points():
    """NaN or inf has no phase; the scalar path raises too."""
    p = make_params(3, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            W.eval_w_vec(p, P.cos_phi(), np.array([0.25, bad]))


_LATTICE_CASES = [(2, 0.7), (3, 0.9), (5, 0.6), (7, 0.95), (10, 0.95)]


@pytest.mark.parametrize("b, lam", _LATTICE_CASES)
def test_lattice_matches_rational_oracle(b, lam):
    """W from the lattice recursion equals a 50-digit sum at the exact
    rational point (s + u) / b^L, to the tolerance 1e-12."""
    p = make_params(b, lam)
    level, u = 5, 0.6180339887498949
    idx = np.concatenate([[0, 1, b**level - 1],
                          np.random.default_rng(b).integers(0, b**level, 9)])
    for phi, theta in ((P.cos_phi(), 0.0), (P.cos_phi(0.3), 0.3)):
        got = W.WLattice(p, phi, level, u, 1e-12)(idx)
        for s, v in zip(idx.tolist(), got):
            x = (s + Fraction(u)) / b**level
            assert abs(v - oracle.mp_w_cos_rational(b, lam, x, theta)) < 1e-12


@pytest.mark.parametrize("b, lam", _LATTICE_CASES)
def test_lattice_above_resident_table(b, lam, monkeypatch):
    """Levels above the resident table take their first terms from integer
    phases: the values match the oracle and the all-table evaluation."""
    p = make_params(b, lam)
    level, u = 6, 0.3125
    idx = np.random.default_rng(b).integers(0, b**level, 12)
    whole = W.WLattice(p, P.cos_phi(), level, u, 1e-12)
    assert whole.table_level == level
    monkeypatch.setattr(W, "_LATTICE_TABLE", b**2)
    small = W.WLattice(p, P.cos_phi(), level, u, 1e-12)
    assert small.table_level == 2 and small.table.size == b**2
    got = small(idx)
    np.testing.assert_allclose(got, whole(idx), rtol=0, atol=1e-14)
    for s, v in zip(idx.tolist(), got):
        ref = oracle.mp_w_cos_rational(b, lam, (s + Fraction(u)) / b**level)
        assert abs(v - ref) < 1e-12
    # indices outside [0, b^level) name the same points, W being 1-periodic
    np.testing.assert_array_equal(small(idx + b**level), got)
    np.testing.assert_array_equal(small(idx - 3 * b**level), got)


def _finite_sum(b, lam, r, width):
    """sum_{m < width} lam^m cos(2 pi b^m r / b^width), 50 digits, exact phases."""
    import mpmath

    return float(sum(mpmath.mpf(lam) ** m * mpmath.cos(
        2 * mpmath.pi * mpmath.mpf(b**m * r % b**width) / b**width) for m in range(width)))


@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.5), (10, 0.5)])
def test_lattice_origin_constants_are_finite_sums(b, lam, monkeypatch):
    """At shift 0 started from 0 the lattice is the finite sum behind the
    theta origin constants, also above the resident table; theta built from
    subsampled indices carries c = that sum - Gamma(r / b^width)."""
    from weierlab.funcspace import build_theta
    from weierlab.kernel import eval_gamma_vec, seeded_code

    p = make_params(b, lam)
    monkeypatch.setattr(W, "_LATTICE_TABLE", b**3)
    width = 7
    idx = np.random.default_rng(b).integers(0, b**width, 16)
    got = W.WLattice(p, P.cos_phi(), width, start=0.0)(idx)
    for r, v in zip(idx.tolist(), got):
        assert abs(v - _finite_sum(b, lam, r, width)) < 1e-13
    code = seeded_code(b, 3, 0)
    theta = build_theta(p, P.cos_phi(), code, 4, cap=16, subsample=24, seed=5, tol=1e-10)
    assert theta.subsampled and len(theta.indices) == 24
    xs = theta.indices / float(b) ** theta.n_hat
    heights = theta.c + eval_gamma_vec(p, P.cos_phi(), xs, code, 1e-10)
    for r, v in zip(theta.indices.tolist(), heights):
        assert abs(v - _finite_sum(b, lam, r, theta.n_hat)) < 1e-12


def test_lattice_rejects_bad_input():
    p = make_params(2, 0.7)
    with pytest.raises(ValueError, match="shift"):
        W.WLattice(p, P.cos_phi(), 4, 1.0)
    with pytest.raises(ValueError, match="level"):
        W.WLattice(p, P.cos_phi(), 63)
    with pytest.raises(ValueError, match="level"):
        W.WLattice(p, P.cos_phi(), -1)


def test_self_affinity_residual_small():
    """W(x) = phi(x) + lam W(b x mod 1) holds to twice the tolerance."""
    for b, lam, phi in [(2, 0.7, P.cos_phi()), (3, 0.55, P.cos_phi()),
                        (2, 0.6, P.triangle_phi())]:
        p = make_params(b, lam)
        assert W.self_affinity_residual(p, phi, n_points=200) < 2e-12


def test_recovered_generator_rebuilds_w0():
    """With phi = w0 - lam w0(b x), the limit function is w0 itself."""
    p = make_params(2, 0.7)
    phi = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    xs = np.linspace(0, 1, 1024, endpoint=False)
    got = W.eval_w_vec(p, phi, xs)
    assert np.max(np.abs(got - np.cos(2 * np.pi * xs))) < 2e-12


def test_fourier_recursion_matches_fft():
    """Coefficient chains agree with an FFT of an alias-free dense sample."""
    for b, lam, n_terms in [(2, 0.7, 15), (3, 0.55, 10)]:
        p = make_params(b, lam)
        cos = P.cos_phi()
        wf = W.fourier_of_w(p, cos, 64)

        def partial(xs, _b=b, _lam=lam, _n=n_terms, _phi=cos):
            acc = np.zeros_like(xs)
            for n in range(_n):
                acc += _lam**n * P.eval_phi(_phi, (_b**n * xs) % 1.0)
            return acc

        ref = oracle.fft_w_coefficients(p, partial, n_points=1 << 16, m_keep=64)
        for m in range(-64, 65):
            got = complex(wf.coeffs.get(m, 0.0))
            assert abs(got - ref[m]) < 1e-6


def test_fourier_chain_closed_form():
    """For the cosine the only chains sit at powers of b with weight lam^j / 2."""
    p = make_params(2, 0.7)
    wf = W.fourier_of_w(p, P.cos_phi(), 64)
    for j in range(7):
        assert wf.coeffs[2**j] == pytest.approx(0.7**j * 0.5, abs=1e-15)
        assert wf.coeffs[-(2**j)] == pytest.approx(0.7**j * 0.5, abs=1e-15)
    assert 3 not in wf.coeffs


def test_fourier_mean_of_constant_generator():
    """The zero-frequency chain sums the geometric series c0 / (1 - lam)."""
    p = make_params(2, 0.7)
    wf = W.fourier_of_w(p, P.const_phi(2.5), 8)
    assert wf.coeffs[0] == pytest.approx(2.5 / 0.3, rel=1e-12)


def test_regulating_energy_integer_period_is_zero():
    p = make_params(2, 0.7)
    eb = W.regulating_energy(p, P.cos_phi(), 3, 2)
    assert eb.lo == 0.0 and eb.hi == 0.0
    assert eb.trivial and eb.finite


def test_regulating_energy_analytic_closed_form():
    """For W = cos(2 pi x), E_2(1/3) = (2 pi)^2 |e^{2 pi i/3} - 1| = 4 pi^2 sqrt(3)."""
    p = make_params(2, 0.7)
    phi = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    eb = W.regulating_energy(p, phi, Fraction(1, 3), 2)
    ref = 4.0 * math.pi**2 * math.sqrt(3.0)
    assert eb.hi == pytest.approx(ref, rel=1e-12)
    assert eb.lo <= eb.hi + 1e-12
    assert eb.hi - eb.lo < 1e-6
    assert eb.finite and not eb.trivial


def test_regulating_energy_divergent_tail():
    """lam b^2 > 1 with a never-dying twist gives an infinite upper bound."""
    p = make_params(2, 0.7)
    eb = W.regulating_energy(p, P.cos_phi(), Fraction(1, 3), 2)
    assert not eb.finite
    assert math.isinf(eb.hi)
    assert eb.lo > 100.0


def test_regulating_energy_badic_period_is_finite():
    """A base-adic twist kills deep chains, so the sum stays finite at k = 2."""
    p = make_params(2, 0.7)
    eb = W.regulating_energy(p, P.cos_phi(), Fraction(1, 4), 2)
    assert eb.finite and eb.trivial
    assert math.isfinite(eb.hi)
    assert 0.0 < eb.lo <= eb.hi


def test_regulating_energy_order_zero_bounds():
    """At k = 0 the geometric tail converges; E_0 <= 2 sup |W|."""
    p = make_params(2, 0.7)
    eb = W.regulating_energy(p, P.cos_phi(), Fraction(1, 3), 0)
    assert eb.finite
    assert 0.0 < eb.lo <= eb.hi < 2.0 / 0.3 + 1e-9


def test_period_scan_classes():
    """Base-adic periods come out trivial, thirds non-regulating here."""
    p = make_params(2, 0.7)
    rows = W.period_scan(p, P.cos_phi(), 2, [1, 2, 3, 4])
    klass = {r.t: r.klass for r in rows}
    assert klass[Fraction(0)] == "trivial"
    assert klass[Fraction(1, 2)] == "trivial"
    assert klass[Fraction(1, 4)] == "trivial"
    assert klass[Fraction(3, 4)] == "trivial"
    assert klass[Fraction(1, 3)] == "non-regulating"
    assert klass[Fraction(2, 3)] == "non-regulating"


def test_period_scan_skips_reducible_fractions():
    p = make_params(2, 0.7)
    rows = W.period_scan(p, P.cos_phi(), 2, [6])
    assert sorted(r.t for r in rows) == [Fraction(1, 6), Fraction(5, 6)]


def test_period_rows_csv():
    p = make_params(2, 0.7)
    rows = W.period_scan(p, P.cos_phi(), 2, [2, 3])
    text = W.period_rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "t_num,t_den,k,E_lo,E_hi,class"
    assert any(",inf," in row for row in lines[1:])
    for row in lines[1:]:
        num, den, k, lo, hi, klass = row.split(",")
        int(num), int(den), int(k)
        float(lo)
        assert hi == "inf" or float(hi) == float(hi)
        assert klass in ("trivial", "non-regulating", "candidate-regulating")


@given(st.floats(0, 1, exclude_max=True, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_self_affinity_pointwise_property(x):
    """The defining functional equation holds at arbitrary points."""
    p = make_params(2, 0.7)
    cos = P.cos_phi()
    bx = (float(x) * 2) % 1.0
    lhs = W.eval_w(p, cos, x)
    rhs = float(P.eval_phi(cos, x)) + 0.7 * W.eval_w(p, cos, bx)
    assert lhs == pytest.approx(rhs, abs=5e-12)
