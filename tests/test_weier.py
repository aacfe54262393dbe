"""Limit function: evaluation, self-affinity, coefficients, and the dichotomy."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weierlab.kernel as kn
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


_PRODUCT_PHIS = {
    "cos": P.cos_phi(),
    "cos-0.3": P.cos_phi(0.3),
    "three-freq": P.FourierPhi({0: 0.4, 1: 0.5, -1: 0.5, 2: 0.2j, -2: -0.2j,
                                3: 0.1 + 0.05j, -3: 0.1 - 0.05j}),
    "twin": P.phi_from_w0(P.cos_phi(), 2, 0.7),
    "zero": P.zero_phi(),
    "const": P.const_phi(1.5),
}


def _whole(lattice):
    """Every value of the lattice in index order, from ``block`` in a few c-ranges."""
    size = lattice.table.size
    cuts = [0, size // 3, size // 3 + 1, size]
    return np.concatenate([lattice.block(lo, hi) for lo, hi in zip(cuts, cuts[1:])],
                          axis=1).reshape(-1)


@pytest.mark.parametrize("start", [None, 0.0], ids=["start-none", "start-0"])
@pytest.mark.parametrize("name", list(_PRODUCT_PHIS))
@pytest.mark.parametrize("b, lam", _LATTICE_CASES)
def test_lattice_product_matches_recursion(b, lam, name, start, monkeypatch):
    """The table built by the angle-addition product, and the blocks past it
    at levels R+1 .. R+4, equal the recursion on every lattice point to
    1e-14 max(1, |W|); a table of one entry leaves all levels to it."""
    p, phi, u = make_params(b, lam), _PRODUCT_PHIS[name], 0.3125

    def check(level, table):
        monkeypatch.setattr(W, "_LATTICE_TABLE", table)
        lattice = W.WLattice(p, phi, level, u, 1e-12, start)
        monkeypatch.setattr(W, "_LATTICE_TABLE", 1)
        ref = W.WLattice(p, phi, level, u, 1e-12, start)(np.arange(b**level))
        got = _whole(lattice)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
        return lattice

    deep = round(math.log(4096, b))  # b^R about 4096: several levels on each side of R // 2
    assert check(deep, b**deep).table_level == deep
    low = max(r for r in range(1, 14) if b ** (r + 4) <= 1 << 17)
    for level in range(low + 1, low + 5):
        assert check(level, b**low).table_level == low


@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.9), (10, 0.95)])
def test_lattice_block_equals_call(b, lam, monkeypatch):
    """A block is __call__ on its grid of indices a b^R + c: the table itself
    at level R (a view of it), to rounding past the table for Fourier data,
    and bit for bit for piecewise data, which keep the recursion."""
    p, u = make_params(b, lam), 0.6180339887498949
    monkeypatch.setattr(W, "_LATTICE_TABLE", b**3)
    lo, hi = 2, b**3 - 1
    at_table = W.WLattice(p, P.cos_phi(0.3), 3, u)
    blk = at_table.block(lo, hi)
    np.testing.assert_array_equal(blk, at_table(np.arange(lo, hi))[None, :])
    assert np.shares_memory(blk, at_table.table)
    grid = np.arange(b**2)[:, None] * b**3 + np.arange(lo, hi)
    for phi in (P.cos_phi(0.3), _PRODUCT_PHIS["three-freq"]):
        past = W.WLattice(p, phi, 5, u)
        np.testing.assert_allclose(past.block(lo, hi), past(grid), rtol=0, atol=1e-14)
    tri = W.WLattice(p, P.triangle_phi(), 5, u)
    np.testing.assert_array_equal(tri.block(lo, hi), tri(grid))
    for bad in ((-1, 4), (5, 4), (0, b**3 + 1)):
        with pytest.raises(ValueError, match="lo <= hi"):
            past.block(*bad)


@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.9), (7, 0.95)])
def test_lattice_blocks_past_the_table_match_rational_oracle(b, lam, monkeypatch):
    """Values from the product two and four levels past the table equal a
    50-digit sum at the exact rational point (a b^R + c + u) / b^L."""
    p, u = make_params(b, lam), 0.3125
    monkeypatch.setattr(W, "_LATTICE_TABLE", b**2)
    rng = np.random.default_rng(b)
    for theta in (0.0, 0.3):
        for level in (4, 6):
            blk = W.WLattice(p, P.cos_phi(theta), level, u, 1e-12).block(0, b**2)
            for a, c in zip(rng.integers(0, b ** (level - 2), 4), rng.integers(0, b**2, 4)):
                x = (int(a) * b**2 + int(c) + Fraction(u)) / b**level
                ref = oracle.mp_w_cos_rational(b, lam, x, theta)
                assert abs(blk[a, c] - ref) < 1e-12


@pytest.mark.parametrize("start", [None, 0.0], ids=["start-none", "start-0"])
@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.5), (5, 0.6)])
def test_triangle_lattice_is_the_recursion_bit_for_bit(b, lam, start, monkeypatch):
    """Piecewise generators keep the recursion W_l[s] = lam W_(l-1)[s mod
    b^(l-1)] + phi((s + u) / b^l) with exactly its operations, in the table
    and past it."""
    p, tri, u = make_params(b, lam), P.triangle_phi(), 0.3125
    level = round(math.log(4096, b))
    ref = np.array([W.eval_w(p, tri, u, 1e-12) if start is None else start])
    for lv in range(1, level + 1):
        s = np.arange(b**lv)
        ref = ref[s % b ** (lv - 1)] * lam + P.eval_phi(tri, (s + u) / b**lv)
    np.testing.assert_array_equal(_whole(W.WLattice(p, tri, level, u, 1e-12, start)), ref)
    monkeypatch.setattr(W, "_LATTICE_TABLE", b ** (level - 2))
    np.testing.assert_array_equal(_whole(W.WLattice(p, tri, level, u, 1e-12, start)), ref)


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
            got = complex(wf.get(m, 0.0))
            assert abs(got - ref[m]) < 1e-6


def test_fourier_chain_closed_form():
    """For the cosine the only chains sit at powers of b with weight lam^j / 2."""
    p = make_params(2, 0.7)
    wf = W.fourier_of_w(p, P.cos_phi(), 64)
    for j in range(7):
        assert wf[2**j] == pytest.approx(0.7**j * 0.5, abs=1e-15)
        assert wf[-(2**j)] == pytest.approx(0.7**j * 0.5, abs=1e-15)
    assert 3 not in wf


def test_fourier_mean_of_constant_generator():
    """The zero-frequency chain sums the geometric series c0 / (1 - lam)."""
    p = make_params(2, 0.7)
    wf = W.fourier_of_w(p, P.const_phi(2.5), 8)
    assert wf[0] == pytest.approx(2.5 / 0.3, rel=1e-12)


# ---------------------------------------------------------------------------
# the dichotomy

TWIN = P.phi_from_w0(P.cos_phi(), 2, 0.7)  # W = cos at lam 0.7 alone
TABLE_30 = P.FourierPhi({k: 0.3 ** abs(k) for k in range(-30, 31) if k})
TABLE_3 = P.FourierPhi({-3: 0.125 - 0.25j, -1: 0.5, 0: 0.25, 1: 0.5, 3: 0.125 + 0.25j})


def _real_table(half: dict[int, float]) -> P.FourierPhi:
    return P.FourierPhi({**half, **{-k: v for k, v in half.items()}})


@pytest.mark.parametrize("b, lam", [(2, 0.7), (3, 0.5), (5, 0.31), (2, 0.55)])
def test_twin_is_analytic_at_its_lambda_alone(b, lam):
    """P_1(z) = (1 - lam z) / 2 has the one root 1/lam, found exactly."""
    assert W.analytic_lambdas(b, P.phi_from_w0(P.cos_phi(), b, lam)) == (lam,)


def test_rough_at_every_lambda():
    """The cosine's one chain polynomial is the constant 1/2, and chains
    of positive coefficients have no positive root."""
    assert W.analytic_lambdas(2, P.cos_phi()) == ()
    assert W.analytic_lambdas(2, TABLE_30) == ()


@pytest.mark.parametrize("half, lams", [
    ({1: 1.0, 2: -1.375, 4: 0.46875}, (0.625, 0.75)),  # (1 - 0.625 z)(1 - 0.75 z)
    ({1: 1.0, 2: -1.5, 4: 0.5625}, (0.75,)),  # a double root counts once
    ({1: 1.0, 2: -1.375, 4: 0.46875, 3: 1.0, 6: -0.75}, (0.75,)),  # the common root alone
    ({1: 1.0, 2: -0.5}, ()),  # lam = 1/b is no valid parameter
], ids=["two-roots", "double-root", "common-root", "root-at-1/b"])
def test_analytic_lambdas_are_the_common_roots(half, lams):
    assert W.analytic_lambdas(2, _real_table(half)) == lams
    for lam in lams:
        assert W.dichotomy(make_params(2, lam), _real_table(half)).analytic


def test_constant_phi_is_the_exception():
    """A constant phi is analytic at every lam, so it has no finite set."""
    with pytest.raises(ValueError, match="constant"):
        W.analytic_lambdas(2, P.const_phi(1.5))
    for b, lam in ((2, 0.7), (3, 0.4), (7, 0.9)):
        d = W.dichotomy(make_params(b, lam), P.const_phi(1.5))
        assert d.analytic and d.residual == 0.0 and d.onset_level == math.inf


def test_dichotomy_refuses_piecewise_generators():
    with pytest.raises(TypeError, match="Fourier"):
        W.analytic_lambdas(2, P.triangle_phi())
    with pytest.raises(TypeError, match="Fourier"):
        W.dichotomy(make_params(2, 0.7), P.triangle_phi())


@pytest.mark.parametrize("b, lam, phi", [
    (2, 0.7, P.cos_phi()), (2, 0.699, TWIN), (2, 0.6, TABLE_30),
    (2, 0.7, TABLE_3), (3, 0.5, TABLE_3),
], ids=["cos", "twin", "table-30", "table-3-b2", "table-3-b3"])
def test_residual_is_the_deep_coefficient(b, lam, phi):
    """Past the top frequency K, A_(k b^n) = lam^n P_k(1/lam): the largest
    |A_(k b^n)| / lam^n over k b^n in (K, b K] is the residual."""
    p = make_params(b, lam)
    top = max(phi.freqs)
    wf = W.fourier_of_w(p, phi, b * top)
    deep = []
    for m in range(top + 1, b * top + 1):
        n = 0
        while m % b**(n + 1) == 0:
            n += 1
        deep.append(abs(wf.get(m, 0.0)) / lam**n)
    d = W.dichotomy(p, phi)
    assert not d.analytic
    assert max(deep) == pytest.approx(d.residual, rel=1e-12)


@pytest.mark.parametrize("lam, residual", [(0.699, 7.153e-4), (0.69, 7.246e-3), (0.65, 3.846e-2)])
def test_residual_and_onset_near_the_twins_lambda(lam, residual):
    d = W.dichotomy(make_params(2, lam), TWIN)
    assert not d.analytic
    assert d.residual == pytest.approx(residual, rel=1e-2)
    assert d.onset_level == pytest.approx(math.log(1 / d.residual) / math.log(2 * lam), rel=1e-12)
    assert W.dichotomy(make_params(2, 0.7), TWIN).analytic


@pytest.mark.parametrize("b, phi, lams", [
    (2, P.phi_from_w0(P.FourierPhi({1: 0.3, -1: 0.3}), 2, 0.7), (0.69, 0.7, 0.71)),
    (2, TWIN, (0.699, 0.7)),
    (3, P.phi_from_w0(P.cos_phi(), 3, 0.5), (0.5, 0.51)),
    (2, P.cos_phi(), (0.55, 0.7, 0.9)),
    (2, TABLE_30, (0.55, 0.7, 0.9)),
], ids=["rounded-twin", "twin-b2", "twin-b3", "cos", "table-30"])
def test_dichotomy_is_analytic_exactly_at_analytic_lambdas(b, phi, lams):
    """``dichotomy`` reads analytic exactly at the lam of ``analytic_lambdas``.
    The twin of 0.6 cos(2 pi x) at 0.7 rounds c_2 = -0.7 x 0.3, so its
    chain polynomial vanishes at the exact root fl(0.7 x 0.3) / 0.3, whose
    nearest float is 0.7: there the residual is of rounding size."""
    roots = W.analytic_lambdas(b, phi)
    for lam in lams:
        d = W.dichotomy(make_params(b, lam), phi)
        assert d.analytic == (lam in roots), lam
    rounded = W.dichotomy(make_params(2, 0.7), P.phi_from_w0(P.FourierPhi({1: 0.3, -1: 0.3}),
                                                             2, 0.7))
    assert 0.0 < rounded.residual < 1e-16 and rounded.onset_level > 100


def test_dichotomy_agrees_with_condition_h():
    """Criterion 4's pair at (2, 0.7): the twin analytic with H* evidence,
    the cosine rough with H evidence."""
    p = make_params(2, 0.7)
    for phi, analytic, evidence in ((TWIN, True, "H*-evidence"),
                                    (P.cos_phi(), False, "H-evidence")):
        assert W.dichotomy(p, phi).analytic == analytic
        assert kn.condition_h_scan(p, phi).classification == evidence


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
