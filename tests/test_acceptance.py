"""Acceptance suite: one test per headline capability, at full scale.

Each test prints a single PASS or FAIL line with the measured numbers
before asserting, so a verbose run reads as a scorecard.  These runs are
heavier than the unit tests; the whole file takes several minutes.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import mpmath
import numpy as np

import oracle
from weierlab import funcspace as fs
from weierlab import kernel as kn
from weierlab import measure as ms
from weierlab import phi as phimod
from weierlab import weier as wr
from weierlab._util import substream


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. box-counting dimension of the graph


def test_criterion_1_box_dimension_matches_reference():
    """Stratified box counts over levels 8..14 with at least 4e6 samples
    recover 2 + log_b(lam) to 0.05 for two parameter sets, the rough
    base-3 run finishing inside five minutes."""
    t0 = time.monotonic()
    p3 = wr.make_params(3, 0.5)
    rep3 = ms.graph_box_dimension(p3, phimod.cos_phi(),
                                  levels=range(8, 15), n_samples=4_000_000)
    elapsed = time.monotonic() - t0
    p2 = wr.make_params(2, 0.7)
    rep2 = ms.graph_box_dimension(p2, phimod.cos_phi(),
                                  levels=range(8, 15), n_samples=4_000_000)
    ok = (
        abs(rep3.slope - 1.3691) <= 0.05
        and abs(rep2.slope - 1.4854) <= 0.05
        and rep3.n_samples >= 4_000_000
        and rep2.n_samples >= 4_000_000
        and elapsed < 300.0
    )
    _line("criterion 1 (box dimension)", ok,
          f"b=3 slope {rep3.slope:.4f} vs 1.3691, "
          f"b=2 slope {rep2.slope:.4f} vs 1.4854, "
          f"samples {rep3.n_samples}/{rep2.n_samples}, b=3 time {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. entropy dimension of projected measures


def test_criterion_2_entropy_dimension_median():
    """The median entropy slope over 32 seeded direction codes reaches
    0.95, and doubling the sample count moves it by under 0.02."""
    params = wr.make_params(2, 0.7)
    phi = phimod.cos_phi()
    codes = [kn.seeded_code(2, 0, i) for i in range(32)]
    rep = ms.alpha_estimate(params, phi, codes, levels=range(6, 15),
                            n_samples=4_000_000, seed=0)
    rep2 = ms.alpha_estimate(params, phi, codes, levels=range(6, 15),
                             n_samples=8_000_000, seed=0)
    shift = abs(rep2.median - rep.median)
    ok = rep.median >= 0.95 and shift < 0.02
    _line("criterion 2 (entropy dimension)", ok,
          f"median {rep.median:.4f} (iqr {rep.iqr:.4f}), "
          f"doubled-sample median {rep2.median:.4f}, shift {shift:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 3. structural identities


def test_criterion_3_structural_identities():
    """Self-affinity, the projection transition rule, the derivative of
    the flow projection, the entropy chain rule, and frequency surgery
    on rational spectra all hold at their stated tolerances."""
    params = wr.make_params(2, 0.7)
    phi = phimod.cos_phi()

    res_cos = wr.self_affinity_residual(params, phi, n_points=1000, tol=1e-12)
    tri = wr.make_params(2, 0.6)
    res_tri = wr.self_affinity_residual(tri, phimod.triangle_phi(),
                                        n_points=1000, tol=1e-12)
    affine_ok = res_cos <= 2e-12 and res_tri <= 2e-12

    rng = substream(0, 0xACC3)
    code = kn.seeded_code(2, 0, 1)
    worst_tr = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        word = tuple(int(s) for s in rng.integers(0, 2, size=n))
        x = float(rng.random())
        y = float(rng.random()) * 2.0 - 1.0
        worst_tr = max(worst_tr,
                       kn.transition_residual(params, phi, word, code, x, y))
    transition_ok = worst_tr <= 1e-9

    worst_dg = 0.0
    for x in np.linspace(0.05, 0.95, 19):
        num = oracle.central_difference(
            lambda t: kn.eval_gamma(params, phi, t, code, 1e-12), float(x))
        worst_dg = max(worst_dg,
                       abs(num - kn.eval_y(params, phi, float(x), code, 1e-12)))
    deriv_ok = worst_dg <= 1e-5

    vals = substream(0, 0xC4A1).random(5000)
    hist = ms.histogram_from_values(vals, 2, 8)
    coarse = ms.coarsen(hist, 3)
    whole = float(hist.masses.sum())
    total = ms.entropy(coarse)
    for key, mass in zip(coarse.keys.tolist(), coarse.masses.tolist()):
        comp = ms.component_measure(hist, 3, key)
        total += (mass / whole) * ms.entropy(comp)
    chain_err = abs(total - ms.entropy(hist))
    chain_ok = chain_err <= 1e-12

    table = phimod.FourierPhi({0: 0.25, 2: 0.5 + 0.125j, -2: 0.5 - 0.125j,
                               4: -0.75 + 0.0625j, -4: -0.75 - 0.0625j,
                               3: 0.375j, -3: -0.375j})
    kept = phimod.renormalize(table, 2)
    back = phimod.rescale(kept, 2)
    renorm_ok = (
        kept.coeffs == {0: table.coeffs[0], 1: table.coeffs[2],
                        -1: table.coeffs[-2], 2: table.coeffs[4],
                        -2: table.coeffs[-4]}
        and back.coeffs == {k: v for k, v in table.coeffs.items() if k % 2 == 0}
        and phimod.s_p(table, 2).coeffs == {3: table.coeffs[3],
                                            -3: table.coeffs[-3]}
    )

    ok = affine_ok and transition_ok and deriv_ok and chain_ok and renorm_ok
    _line("criterion 3 (structural identities)", ok,
          f"self-affinity {max(res_cos, res_tri):.2e} (<=2e-12), "
          f"transition {worst_tr:.2e} (<=1e-9), "
          f"d(gamma)=Y {worst_dg:.2e} (<=1e-5), "
          f"chain rule {chain_err:.2e} (<=1e-12), "
          f"rational surgery exact {renorm_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 4. smooth versus rough dichotomy


def test_criterion_4_analytic_dichotomy():
    """A generator built to telescope W into cos(2 pi x) reproduces it to
    twice the evaluation tolerance and classifies as everywhere
    degenerate, while the plain cosine generator shows a separation
    floor above 1e-6."""
    params = wr.make_params(2, 0.7)
    analytic = phimod.phi_from_w0(phimod.cos_phi(), 2, 0.7)
    xs = (np.arange(4096) + 0.5) / 4096
    sup = float(np.max(np.abs(
        wr.eval_w_vec(params, analytic, xs, 1e-9) - np.cos(2 * np.pi * xs))))
    rebuild_ok = sup <= 2e-9

    scan_a = kn.condition_h_scan(params, analytic)
    scan_r = kn.condition_h_scan(params, phimod.cos_phi())
    degen_ok = scan_a.classification == "H*-evidence" and scan_a.max_sep <= 1e-8
    rough_ok = scan_r.classification == "H-evidence" and scan_r.min_sep > 1e-6

    ok = rebuild_ok and degen_ok and rough_ok
    _line("criterion 4 (analytic dichotomy)", ok,
          f"|W - cos| sup {sup:.2e} (<=2e-9), "
          f"analytic max_sep {scan_a.max_sep:.2e} -> {scan_a.classification}, "
          f"rough min_sep {scan_r.min_sep:.2e} -> {scan_r.classification}")
    assert ok


# ---------------------------------------------------------------------------
# 5. Fourier recursion


def test_criterion_5_fourier_recursion_vs_fft():
    """Coefficients from the divisibility recursion agree with an FFT of
    an alias-free partial sum to 1e-6 for |m| <= 64, and the constant
    mode equals c_0 / (1 - lam)."""
    worst = 0.0
    for b, lam, n_terms in ((2, 0.7, 15), (3, 0.55, 10)):
        params = wr.make_params(b, lam)
        phi = phimod.cos_phi()
        wf = wr.fourier_of_w(params, phi, 64)

        def partial(xs, params=params, phi=phi, n_terms=n_terms):
            acc = np.zeros_like(xs)
            for j in range(n_terms):
                acc += params.lam**j * np.asarray(
                    phimod.eval_phi(phi, (xs * params.b**j) % 1.0))
            return acc

        ref = oracle.fft_w_coefficients(params, partial, 1 << 16, 64)
        for m in range(-64, 65):
            worst = max(worst, abs(wf.get(m, 0.0) - ref.get(m, 0.0)))
    fft_ok = worst <= 1e-6

    params = wr.make_params(2, 0.7)
    shifted = phimod.FourierPhi({0: 2.5, 1: 0.5, -1: 0.5})
    a0 = wr.fourier_of_w(params, shifted, 8)[0]
    const_ok = abs(a0 - 2.5 / 0.3) <= 1e-9 * abs(2.5 / 0.3)

    ok = fft_ok and const_ok
    _line("criterion 5 (Fourier recursion)", ok,
          f"max |recursion - fft| {worst:.2e} (<=1e-6), "
          f"A_0 {a0!r} vs {2.5 / 0.3!r}")
    assert ok


# ---------------------------------------------------------------------------
# 6. depth bracket


_SCALE_BITS = 200
_MARGIN = 1 << 24


def _log_scaled(value: Fraction) -> int:
    with mpmath.workprec(300):
        x = mpmath.ln(mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator))
        return int(mpmath.nint(x * (1 << _SCALE_BITS)))


def _bracket_violations(b: int, lam: float, n_max: int) -> int:
    """Count n in 1..n_max where the reported depth m breaks
    lam^m <= b^-n < lam^(m-1), deciding each side exactly."""
    params = wr.make_params(b, lam)
    frac = Fraction(lam)
    num, den = frac.numerator, frac.denominator
    two_power = num == 1 and den & (den - 1) == 0 and b & (b - 1) == 0
    if two_power:
        j, k = den.bit_length() - 1, b.bit_length() - 1
    else:
        ls = _log_scaled(Fraction(den, num))  # log(1/lam), positive
        bs = _log_scaled(Fraction(b))
    bad = 0
    for n in range(1, n_max + 1):
        m = ms.n_hat(params, n)
        if two_power:
            if not (j * m >= k * n > j * (m - 1)):
                bad += 1
            continue
        s_lower = m * ls - n * bs
        if s_lower >= _MARGIN:
            lower = True
        elif s_lower <= -_MARGIN:
            lower = False
        else:
            lower = num**m * b**n <= den**m
        s_upper = n * bs - (m - 1) * ls
        if s_upper >= _MARGIN:
            upper = True
        elif s_upper <= -_MARGIN:
            upper = False
        else:
            upper = num ** (m - 1) * b**n > den ** (m - 1)
        if not (lower and upper):
            bad += 1
    return bad


def test_criterion_6_depth_bracket_exact():
    """The depth map satisfies its defining double inequality for every
    n up to 10^4 across twenty parameter pairs, certified by scaled
    integer logarithms with an exact rational fallback."""
    pairs = [
        (4, 0.5), (8, 0.5), (16, 0.5), (8, 0.25), (16, 0.25),
        (16, 0.125), (32, 0.5), (32, 0.25), (32, 0.125), (32, 0.0625),
        (2, 0.5625), (2, 0.625), (3, 0.5), (3, 0.375), (5, 0.25),
        (5, 0.375), (6, 0.1875), (7, 0.25), (10, 0.125), (12, 0.09375),
    ]
    assert len(pairs) == 20
    total_bad = 0
    for b, lam in pairs:
        total_bad += _bracket_violations(b, lam, 10_000)
    ok = total_bad == 0
    _line("criterion 6 (depth bracket)", ok,
          f"{total_bad} violations over 20 pairs x 10^4 depths")
    assert ok


# ---------------------------------------------------------------------------
# 7. theta entropy trends


def test_criterion_7_theta_entropy_trends():
    """With the separation constant C found automatically, the deep-cell
    entropy rate at n = 12 lands within 15% of 1.9434, the coarse-cell
    entropy grows along n with slope within 0.1 of the entropy
    dimension, and C does not move between n_max 6 and 8."""
    params = wr.make_params(2, 0.7)
    phi = phimod.cos_phi()
    code = kn.seeded_code(2, 0, 0)

    sep6 = fs.separation_constant_c(params, phi, code, 6, 2)
    sep8 = fs.separation_constant_c(params, phi, code, 8, 2)
    c_ok = (sep6.separable and sep8.separable
            and sep6.c_value == sep8.c_value and sep6.c_value is not None)
    c_val = sep6.c_value if sep6.c_value is not None else 1

    cap = 1 << 24
    rates = []
    deep_rate = math.nan
    for n in range(6, 13):
        theta = fs.build_theta(params, phi, code, n, cap=cap)
        rep0 = fs.theta_entropy(params, phi, code, n, 0, 2, cap=cap,
                                theta=theta)
        rates.append((n, rep0.entropy))
        if n == 12:
            deep = fs.theta_entropy(params, phi, code, n, c_val * n, 2,
                                    cap=cap, theta=theta)
            deep_rate = deep.entropy / n
    deep_ok = abs(deep_rate - 1.9434) / 1.9434 <= 0.15

    ns = np.array([r[0] for r in rates], dtype=np.float64)
    hs = np.array([r[1] for r in rates], dtype=np.float64)
    slope = float(np.polyfit(ns, hs, 1)[0])
    alpha = ms.alpha_estimate(params, phi,
                              [kn.seeded_code(2, 0, i) for i in range(8)],
                              levels=range(6, 13), n_samples=1 << 20, seed=0)
    slope_ok = abs(slope - alpha.median) <= 0.1

    ok = c_ok and deep_ok and slope_ok
    _line("criterion 7 (theta entropy trends)", ok,
          f"C {sep6.c_value} (n_max 6) vs {sep8.c_value} (n_max 8), "
          f"deep rate {deep_rate:.4f} vs 1.9434, "
          f"coarse slope {slope:.4f} vs alpha {alpha.median:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 8. porosity and small-interval concentration


def test_criterion_8_porosity_and_concentration():
    """Exactly porous references score a low-entropy fraction of one,
    and the small-interval concentration ratio of the rough cosine
    system stays below one half, stable under sample doubling."""
    params = wr.make_params(2, 0.7)
    phi = phimod.cos_phi()
    code = kn.seeded_code(2, 0, 0)

    uniform = ms.histogram_from_values((np.arange(1 << 10) + 0.5) / (1 << 10),
                                       2, 10)
    rep_u = ms.porosity_probe(uniform, 1.0, delta=0.1, m=3, n1=2, n2=4)
    atom = ms.histogram_from_values(np.full(16, 0.3), 2, 10)
    rep_a = ms.porosity_probe(atom, 0.5, delta=0.1, m=3, n1=2, n2=4)
    exact_ok = (rep_u.fraction == 1.0 and rep_u.porous
                and rep_a.fraction == 1.0 and rep_a.porous)

    delta = float(params.b) ** -4
    u1 = ms.ucas_probe(params, phi, [code], delta, n_samples=1 << 19, seed=0)
    u2 = ms.ucas_probe(params, phi, [code], delta, n_samples=1 << 20, seed=0)
    drift = abs(u2.sup_ratio - u1.sup_ratio) / u1.sup_ratio
    ucas_ok = (u1.sup_ratio < 0.5 and u2.sup_ratio < 0.5
               and not u1.degenerate_atom and drift < 0.2)

    ok = exact_ok and ucas_ok
    _line("criterion 8 (porosity and concentration)", ok,
          f"uniform fraction {rep_u.fraction}, atom fraction {rep_a.fraction}, "
          f"sup ratio {u1.sup_ratio:.4f} -> {u2.sup_ratio:.4f} "
          f"(drift {drift:.3f})")
    assert ok


# ---------------------------------------------------------------------------
# 9. convolution entropy


def test_criterion_9_convolution_matches_brute_force():
    """Lattice convolution entropies match a dictionary brute force to
    1e-12 on products of up to 10^4 atom pairs, and a point mass never
    gains more than 2/k."""
    rng = substream(0, 0x9C0E)
    n, k = 3, 7
    level = n + k
    width = 2**k
    worst = 0.0
    for trial in range(5):
        base = int(rng.integers(0, 2**level - 2 * width))
        ka = base + rng.choice(width, size=100, replace=False)
        kb = base + rng.choice(width, size=100, replace=False)
        ma = rng.random(100) + 0.05
        mb = rng.random(100) + 0.05
        ha = ms._pack_histogram(2, level, ka.astype(np.int64), ma / ma.sum())
        hb = ms._pack_histogram(2, level, kb.astype(np.int64), mb / mb.sum())
        gain = fs.convolution_entropy_gain(ha, hb, n, k)
        href = oracle.dict_convolution_entropy(
            ka.tolist(), (ma / ma.sum()).tolist(),
            kb.tolist(), (mb / mb.sum()).tolist(), 2)
        worst = max(worst, abs(gain.h_conv - href))
        worst = max(worst, abs(gain.gain - (gain.h_conv - gain.h_tau) / k))
    brute_ok = worst <= 1e-12

    point = ms._pack_histogram(2, level, np.array([7], dtype=np.int64),
                               np.array([1.0]))
    tau = ms._pack_histogram(2, level,
                             np.arange(16, dtype=np.int64),
                             np.full(16, 1 / 16))
    pm = fs.convolution_entropy_gain(point, tau, n, k)
    point_ok = abs(pm.gain) <= 2 / k

    ok = brute_ok and point_ok
    _line("criterion 9 (convolution entropy)", ok,
          f"max brute-force gap {worst:.2e} (<=1e-12), "
          f"point-mass gain {pm.gain:.2e} (<=2/k)")
    assert ok
