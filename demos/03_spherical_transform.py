#!/usr/bin/env python3
"""The spherical transform of exp(-mu cosh x) and its Bessel backbone.

The closed form 2^d (pi/2mu)^((d-1)/2) K_nu(mu) is checked against direct
2D quadrature of the defining integral, and the three classical integral
identities that produce it are themselves verified numerically.
"""
import numpy as np

from hypcycles import (
    bessel_k,
    bessel_k_asymptotic,
    bessel_k_imag_scaled,
    gr_identity_3_471_9,
    gr_identity_6_592_12,
    gr_identity_6_726_4,
    selberg_transform_closed,
    selberg_transform_quadrature,
)

print("=== closed form vs quadrature ===")
print(f"{'d':>2} {'mu':>4} {'nu':>5} {'closed':>14} {'quadrature':>14} {'rel err':>9}")
for d, mu, nu in [(3, 1.0, 0.0), (3, 2.0, 1j), (4, 1.0, 0.5), (5, 0.5, 2j)]:
    hc = selberg_transform_closed(d, mu, nu)
    hq = selberg_transform_quadrature(d, mu, nu)
    rel = abs(hc - hq) / abs(hc)
    print(f"{d:>2} {mu:>4} {str(nu):>5} {float(np.real(hc)):>14.8f} "
          f"{float(np.real(hq)):>14.8f} {rel:>9.1e}")
print("symmetry h(nu) = h(-nu):",
      selberg_transform_closed(3, 1.5, 0.7) - selberg_transform_closed(3, 1.5, -0.7))

print("\n=== the integral identities behind the reduction ===")
lhs, rhs, err = gr_identity_3_471_9(0.5, 0.5, 1.0)
print(f"power/exponential identity:  lhs={lhs.real:.12f} rhs={rhs.real:.12f} rel={err:.1e}")
lhs, rhs, err = gr_identity_6_726_4(1.0, 1.0, 0.0, 1.0, -1)
print(f"cosine/Bessel identity:      lhs={lhs.real:.12f} rhs={rhs.real:.12f} rel={err:.1e}")
lhs, rhs, err = gr_identity_6_592_12(1.0, 1.0, 0.5)
print(f"index-shift identity:        lhs={lhs:.12f} rhs={rhs:.12f} rel={err:.1e}")
print("(the last one equals pi/e =", np.pi / np.e, ")")

print("\n=== Bessel asymptotics and imaginary order ===")
for x in (10.0, 20.0, 40.0, 80.0):
    ratio = bessel_k(0.0, x) / bessel_k_asymptotic(x)
    print(f"K_0({x:>4}) / sqrt(pi/2x)e^-x = {ratio:.8f}")
print("K_(2i)(1) =", bessel_k(2j, 1.0), " (real up to roundoff)")
print("exp(pi r/2) K_(ir)(1), r = 5..40 (cancellation-free evaluation):")
for r in (5.0, 15.0, 25.0, 40.0):
    v = bessel_k_imag_scaled(r, 1.0)
    print(f"  r={r:>4}: {v:+.6f}   |.|/r = {abs(v)/r:.4f}")
