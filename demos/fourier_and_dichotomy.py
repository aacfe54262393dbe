"""Fourier data of W and the analytic/rough dichotomy, decided exactly.

The coefficients of W obey a divisibility recursion driven by the
generator's spectrum: A_(m b^k) = c_(m b^k) + lambda A_(m b^(k-1)).  Write
m = k b^n with b not dividing k.  Past the generator's top frequency K the
recursion gives A_m = lambda^n P_k(1/lambda), with the chain polynomial
P_k(z) = sum_i c_(k b^i) z^i.  So W is a trigonometric polynomial, analytic,
exactly when every P_k vanishes at 1/lambda; otherwise its coefficients
decay only like a power of the frequency and W is rough.  The cosine's one
chain is the constant 1/2, so it is rough at every lambda.  The twin
phi_from_w0(cos, 2, lambda*) has P_1(z) = (1 - lambda* z) / 2: its W is cos
at lambda* alone, and near lambda* the residual max_k |P_k(1/lambda)|
sets the level n* from which the rough part is one box tall.

Run with:  python3 demos/fourier_and_dichotomy.py
"""

from weierlab import phi, weier


def main() -> None:
    params = weier.make_params(2, 0.7)
    gen = phi.cos_phi()
    wf = weier.fourier_of_w(params, gen, 32)

    print("Fourier chain of W over m = 1, 2, 4, 8, 16, 32 (modulus):")
    for k in range(6):
        m = 2**k
        print(f"  |A_{m:2d}| = {abs(wf[m]):.8f}"
              f"   lambda^{k}/2 = {params.lam**k / 2:.8f}")
    print("geometric decay in k at frequency b^k: rough, never analytic.")

    twin = phi.phi_from_w0(gen, 2, 0.7)
    table = phi.FourierPhi({k: 0.3 ** abs(k) for k in range(-30, 31) if k})
    print("\nanalytic lambda in (1/2, 1), exact roots of the chain polynomials:")
    for name, g in (("cos", gen), ("twin of cos at 0.7", twin),
                    ("0.3^|k|, 1 <= |k| <= 30", table)):
        print(f"  {name:24s} {weier.analytic_lambdas(2, g)}")

    print("\nthe twin's table near its analytic lambda:")
    for lam in (0.7, 0.699, 0.69, 0.65):
        d = weier.dichotomy(weier.make_params(2, lam), twin)
        side = "analytic" if d.analytic else "rough"
        print(f"  lambda = {lam:<6}  {side:8s}  residual {d.residual:.3e}"
              f"   onset level {d.onset_level:.1f}")


if __name__ == "__main__":
    main()
