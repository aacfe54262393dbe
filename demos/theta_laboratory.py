"""The map-space measures theta_n and their partition entropies.

Each atom of theta_n is a contact map: the affine map a word of suitable
depth induces on the flow coordinates.  Partitions of map space by
translation cell and by grid displacement turn theta_n into a sequence
of discrete distributions whose entropy growth witnesses how quickly
word components spread apart.

Run with:  python3 demos/theta_laboratory.py
"""

from weierlab import funcspace, kernel, phi, weier


def main() -> None:
    params = weier.make_params(2, 0.7)
    gen = phi.cos_phi()
    code = kernel.seeded_code(2, 0, 0)

    n = 6
    theta = funcspace.build_theta(params, gen, code, n)
    print(f"theta_{n}: {len(theta)} atoms at word depth {theta.n_hat}")
    cm = theta.contact_map(5)
    print(f"  atom 5 has word {''.join(map(str, theta.word(5)))}, "
          f"t = {cm.t}, c = {cm.c:.8f}")

    print(f"\nentropy of theta_{n} under deepening partitions:")
    for i_level in (0, 2, 4, 6):
        rep = funcspace.theta_entropy(params, gen, code, n, i_level, 2,
                                      theta=theta)
        print(f"  level {i_level}: H = {rep.entropy:.4f}"
              f"  over {rep.n_cells} occupied cells")

    sep = funcspace.separation_constant_c(params, gen, code, 6, 2)
    print(f"\nseparation constant: C = {sep.c_value}"
          f"  (separable: {sep.separable})")
    print("  per word length: "
          + ", ".join(f"n={k}: {v}" for k, v in sorted(sep.per_n.items())))

    analytic = phi.phi_from_w0(phi.cos_phi(), 2, 0.7)
    sep2 = funcspace.separation_constant_c(params, analytic, code, 4, 2)
    print(f"degenerate comparison: C = {sep2.c_value}"
          f"  (separable: {sep2.separable}, "
          f"unseparated pairs: {len(sep2.failures)})")

    print("\nentropy increase experiment (n=8, k=4, demo sizes):")
    rep = funcspace.entropy_increase_experiment(
        params, gen, code, 8, 0, 4, 2, max_components=30)
    print(f"  components processed: {rep.n_processed}, "
          f"selected: {rep.n_selected}")
    print(f"  fraction with positive convolution gain: "
          f"{rep.positive_fraction:.3f}")
    gains = [gain for _cid, _h, gain in rep.rows[:5]]
    print("  first gains: " + ", ".join(f"{g:.4f}" for g in gains))


if __name__ == "__main__":
    main()
