"""Stable directions, flow projections, and the separation scans.

Every backward symbol sequence (a code) determines a stable direction
field Y and a flow projection Gamma with Gamma' = Y.  Distinct codes
either separate on a set of full measure (the rough case) or coincide
everywhere (the degenerate analytic case); the scan below watches both
regimes, then estimates the transversality ratio the rough case needs.

Run with:  python3 demos/kernel_projections.py
"""

import numpy as np

from weierlab import kernel, phi, weier


def main() -> None:
    params = weier.make_params(2, 0.7)
    gen = phi.cos_phi()
    code_a = kernel.periodic_code(2, preperiod=(), cycle=(0,))
    code_b = kernel.periodic_code(2, preperiod=(), cycle=(0, 1))

    print("stable direction field for two codes at a few points:")
    xs = np.array([0.1, 0.3, 0.5, 0.9])
    ya = kernel.eval_y_vec(params, gen, xs, code_a)
    yb = kernel.eval_y_vec(params, gen, xs, code_b)
    for x, a, b in zip(xs, ya, yb):
        print(f"  x={x:.2f}  Y_0bar={a: .6f}  Y_01bar={b: .6f}")

    print("\nflow projection along the all-zeros code:")
    for x in (0.25, 0.5, 1.0):
        g = kernel.eval_gamma(params, gen, x, code_a)
        print(f"  Gamma({x:.2f}) = {g: .8f}")
    d = 1e-6
    g1 = kernel.eval_gamma(params, gen, 0.3 + d, code_a)
    g0 = kernel.eval_gamma(params, gen, 0.3 - d, code_a)
    y = kernel.eval_y(params, gen, 0.3, code_a)
    print(f"  central difference at 0.3: {(g1 - g0) / (2 * d):.8f}"
          f"  vs Y: {y:.8f}")

    word = (1, 0, 1)
    res = kernel.transition_residual(params, gen, word, code_b, 0.37, 0.2)
    print(f"\ntransition identity defect for word {word}: {res:.2e}")

    print("\ncondition scan, rough cosine generator:")
    rep = kernel.condition_h_scan(params, gen, grid_size=1 << 11)
    print(f"  min separation {rep.min_sep:.4f}, max {rep.max_sep:.4f}"
          f"  -> {rep.classification}")

    analytic = phi.phi_from_w0(phi.cos_phi(), 2, 0.7)
    rep2 = kernel.condition_h_scan(params, analytic, grid_size=1 << 11)
    print("condition scan, generator telescoping to cos(2 pi x):")
    print(f"  min separation {rep2.min_sep:.2e}, max {rep2.max_sep:.2e}"
          f"  -> {rep2.classification}")

    u = kernel.periodic_code(2, preperiod=(0,), cycle=(0, 1))
    v = kernel.periodic_code(2, preperiod=(1,), cycle=(0, 1))
    reg = kernel.k_regularity(params, gen, u, v, level=2, k_max=3)
    print("\nregularity of Gamma_u - Gamma_v on the level-2 intervals"
          " (least k with sup |f^(k)| <= 2 inf):")
    for i, k, lo, hi in reg.rows:
        print(f"  [{i}/4, {i + 1}/4)  k = {k}  inf {lo:.4f}  sup {hi:.4f}")
    twin = kernel.k_regularity(params, analytic, u, v, level=2, k_max=3)
    print(f"  generator telescoping to cos(2 pi x): degenerate {twin.degenerate}")

    pairs = kernel.transversality_pairs(params, seed=0, count=8)
    cert = kernel.transversality_certificate(params, gen, pairs, 2)
    print(f"\ntransversality at level 2 over {len(pairs)} code pairs:")
    print(f"  rho0_hat = {cert.rho0_hat:.4f}, median ratio = "
          f"{cert.median_ratio:.4f}")


if __name__ == "__main__":
    main()
