"""Fourier data of W and the search for regulating periodic points.

The coefficients of W obey a divisibility recursion driven by the
generator's spectrum: A_(m b^k) = c_(m b^k) + lambda A_(m b^(k-1)).  Past
the generator's highest frequency a chain m, mb, mb^2, ... that is still
nonzero decays only like lambda^k, a power of the frequency, which rules
out analyticity.  The generator can instead cancel every chain: the twin
phi_from_w0(cos, 2, lambda) has the frequencies 1 and 2 (and their
negatives), yet its W is cos, analytic.  The cosine itself cancels
nothing, so its chain over 1, 2, 4, ... below decays geometrically.
Rational points t = q/p with p coprime to b
are then scanned for the finite regulating energy that controls smooth
conjugacy questions.

Run with:  python3 demos/fourier_and_periods.py
"""

from weierlab import phi, weier


def main() -> None:
    params = weier.make_params(2, 0.7)
    gen = phi.cos_phi()
    wf = weier.fourier_of_w(params, gen, 32)

    print("Fourier chain of W over m = 1, 2, 4, 8, 16, 32 (modulus):")
    for k in range(6):
        m = 2**k
        print(f"  |A_{m:2d}| = {abs(wf.coeffs[m]):.8f}"
              f"   lambda^{k}/2 = {params.lam**k / 2:.8f}")
    print("geometric decay in k at frequency b^k: rough, never analytic.")

    print("\nregulating energy at selected rational points (k = 2):")
    for t_num, t_den in ((1, 2), (1, 3), (1, 4)):
        rep = weier.regulating_energy(params, gen, (t_num, t_den), 2)
        hi = "inf" if not rep.finite else f"{rep.hi:.4f}"
        print(f"  t = {t_num}/{t_den}:  E in [{rep.lo:.4f}, {hi}]"
              f"   finite={rep.finite} trivial={rep.trivial}")

    rows = weier.period_scan(params, gen, k=2,
                             denominators=[2, 3, 4, 5, 6, 7, 8, 9],
                             m_max=64, threshold=100.0)
    print("\nperiod scan summary (denominators 2..9):")
    by_class: dict[str, int] = {}
    for r in rows:
        by_class[r.klass] = by_class.get(r.klass, 0) + 1
    for klass in sorted(by_class):
        print(f"  {klass:22s} {by_class[klass]} points")


if __name__ == "__main__":
    main()
