"""Porosity of projected measures and entropy gains under convolution.

A measure is porous at exponent h when most small intervals carry far
less entropy than h times their log-size allows.  Reference measures
with known behavior calibrate the probe; the projected wave measure is
then tested for the small-interval concentration that would obstruct
dimension-one behavior.  Convolving measures with transverse supports
strictly increases entropy, quantified per level below.

Run with:  python3 demos/porosity_and_convolution.py
"""

import numpy as np

from weierlab import funcspace, kernel, measure, phi, weier


def main() -> None:
    params = weier.make_params(2, 0.7)
    gen = phi.cos_phi()
    code = kernel.seeded_code(2, 0, 0)

    uniform = measure.histogram_from_values(
        (np.arange(1 << 10) + 0.5) / (1 << 10), 2, 10)
    rep = measure.porosity_probe(params, gen, code, 1.0, delta=0.1, m=3,
                                 n1=2, n2=4, hist=uniform)
    print("porosity probe on the uniform reference (h = 1):")
    print(f"  low-entropy fraction {rep.fraction:.3f}  porous: {rep.porous}")

    proj = measure.porosity_probe(params, gen, code, 0.98, delta=0.1, m=3,
                                  n1=4, n2=8, n_samples=1 << 18)
    print("porosity probe on the projected wave measure (h = 0.98):")
    print(f"  low-entropy fraction {proj.fraction:.3f}  porous: {proj.porous}")
    for sc in sorted(proj.per_scale):
        print(f"    scale {sc}: share {proj.per_scale[sc]:.3f}")

    delta = float(params.b) ** -4
    ucas = measure.ucas_probe(params, gen, [code], delta,
                              n_samples=1 << 18, seed=0)
    print("\nsmall-interval concentration at delta = b^-4:")
    print(f"  sup mass ratio {ucas.sup_ratio:.4f}"
          f"  degenerate atom: {ucas.degenerate_atom}")

    print("\nconvolution entropy gain, transverse arithmetic progressions:")
    level, k = 8, 4
    theta_keys = np.array([0, 4, 8, 12], dtype=np.int64)
    tau_keys = np.array([0, 1, 2, 3], dtype=np.int64)

    def mk(keys):
        return measure.histogram_from_values((keys + 0.25) / 2.0**level,
                                             2, level)

    theta_hist = mk(theta_keys)
    print("  theta as a histogram file for `weierlab convolve --theta-file`:")
    for line in measure.hist_to_text(theta_hist).splitlines():
        print(f"    {line}")
    gain = funcspace.convolution_entropy_gain(theta_hist, mk(tau_keys),
                                              level - k, k)
    print(f"  H(tau) = {gain.h_tau:.4f}, H(theta * tau) = {gain.h_conv:.4f}")
    print(f"  gain per level = {gain.gain:.4f}")

    point = measure.histogram_from_values(np.array([5.25]) / 2.0**level,
                                          2, level)
    flat = funcspace.convolution_entropy_gain(point, mk(tau_keys),
                                              level - k, k)
    print(f"  point-mass control: gain = {flat.gain:.2e}")


if __name__ == "__main__":
    main()
