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
    """The vectorized path is exact for base 2 and documented-fast otherwise.

    Base-2 digit shifts are exact float operations; other bases round once
    per level, so agreement there is only to the amplified roundoff scale.
    """
    rng = np.random.default_rng(0)
    xs = rng.random(300)
    cos = P.cos_phi()
    p2 = make_params(2, 0.7)
    s2 = np.array([W.eval_w(p2, cos, float(x)) for x in xs])
    assert np.max(np.abs(W.eval_w_vec(p2, cos, xs) - s2)) < 1e-13
    p3 = make_params(3, 0.55)
    s3 = np.array([W.eval_w(p3, cos, float(x)) for x in xs])
    assert np.max(np.abs(W.eval_w_vec(p3, cos, xs) - s3)) < 1e-6


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
    assert all(e >= 0.0 for e in wf.err_bound.values())


def test_fourier_mean_of_constant_generator():
    """The zero-frequency chain sums the geometric series c0 / (1 - lam)."""
    p = make_params(2, 0.7)
    wf = W.fourier_of_w(p, P.const_phi(2.5), 8)
    assert wf.coeffs[0] == pytest.approx(2.5 / 0.3, rel=1e-12)


def test_wfourier_csv_schema():
    p = make_params(2, 0.7)
    wf = W.fourier_of_w(p, P.cos_phi(), 16)
    text = W.wfourier_to_csv(wf)
    lines = text.strip().splitlines()
    assert lines[0] == "m,re,im,err"
    assert len(lines) == 1 + len(wf.coeffs)
    for row in lines[1:]:
        m, re_, im_, err = row.split(",")
        float(re_), float(im_), float(err)
        int(m)


def test_holder_estimate_is_stable():
    """Doubling the pair budget moves the constant by well under a third."""
    p = make_params(2, 0.7)
    h1 = W.holder_constant_estimate(p, P.cos_phi(), pairs_per_scale=256)
    h2 = W.holder_constant_estimate(p, P.cos_phi(), pairs_per_scale=512)
    assert len(h1.per_scale) == 9
    assert 0 < h1.kappa_hat < 30
    assert abs(h2.kappa_hat - h1.kappa_hat) < 0.3 * h1.kappa_hat
    assert all(r <= h1.kappa_hat + 1e-12 for _, r in h1.per_scale)


def test_anti_holder_separates_rough_from_analytic():
    """The lower-modulus witness stays large only for the rough function."""
    p = make_params(2, 0.7)
    rough = P.cos_phi()
    smooth = P.phi_from_w0(P.cos_phi(), 2, 0.7)
    _, r_rough = W.anti_holder_probe(p, rough, 0.3, 2.0**-10)
    _, r_smooth = W.anti_holder_probe(p, smooth, 0.3, 2.0**-10)
    assert r_rough > 2.0
    assert r_smooth < 0.5
    assert r_rough > 5.0 * r_smooth


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


def test_key_estimate_probe():
    p = make_params(2, 0.7)
    with pytest.raises(ValueError):
        W.key_estimate_probe(p, P.cos_phi(), 0)
    rep = W.key_estimate_probe(p, P.cos_phi(), 2)
    assert rep.trivial and rep.product == 0.0
    rep = W.key_estimate_probe(p, P.cos_phi(), Fraction(1, 3), m_maxes=(16, 32, 64))
    assert not rep.trivial
    assert len(rep.per_m) == 3
    assert rep.product > 0.0
    assert rep.product == pytest.approx(rep.per_m[-1][2])


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
