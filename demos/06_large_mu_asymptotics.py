#!/usr/bin/env python3
"""Assembly-level numerics: total mass, main-term window integral, the
per-class error integrand J and its exponential decay, spectral tails
under the Weyl law, and the exp(mu)-rescaled limit shape.
"""
import numpy as np

from hypcycles import (
    BoxDomain,
    CycleConfig,
    SpectrumModel,
    envelope_fraction,
    f_total_integral,
    j_gamma_decay_check,
    j_gamma_quadrature,
    picard_generators,
    plateau_gap,
    rescaled_limit_shape,
    sigma0_model,
    spectral_tail_bound,
)

cfg = CycleConfig(3, 2)
box = BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1.0, 2.0))

print("=== total mass of the test function over the group ===")
for mu in (0.5, 1.0, 2.0):
    closed, quad, err = f_total_integral(3, mu)
    print(f"mu = {mu}: closed {closed:.8f}  quadrature {quad:.8f}  rel {err:.1e}")

print("\n=== main-term model over a compact window ===")
closed, quad, err = sigma0_model(cfg, 1.0, 0.0, box)
print(f"(d,n) = (3,2), mu = 1, nu = 0: closed {closed:.10f} vs quadrature "
      f"{quad:.10f} (rel {err:.1e})")
print("window factor here is log 2 =", np.log(2.0))

print("\n=== the error integrand decays like exp(-mu sqrt(delta_min)) ===")
mats = dict(zip(picard_generators().labels, picard_generators().matrices))
T, U, S = mats["T"], mats["U"], mats["S"]
g = U @ S @ U
results = {}
for mu in (5.0, 10.0, 20.0, 40.0):
    results[mu] = j_gamma_quadrature(g, ((-3.0, 3.0),), cfg, mu, 0.3)
print(f"delta_min over the window: {results[5.0].delta_min:.4f}")
for mu, res in results.items():
    print(f"  mu = {mu:>4}: log J = {res.log_value:>10.3f}")
stats, ok = j_gamma_decay_check(results, slack_degree=2.0)
print("log J + mu sqrt(delta_min)/2 non-increasing:", ok)

print("\n=== spectral tail under the Weyl counting law (d = 3, vol = 1) ===")
spec = SpectrumModel.synthetic_weyl(3, 1.0, 90.0)
print(f"synthetic spectrum size: {len(spec.r)} (frequencies up to 90)")
for R in (10.0, 20.0, 40.0):
    tail, _ = spectral_tail_bound(spec, R)
    print(f"  tail beyond R = {R:>4}: {tail:.3e}")

print("\n=== exp(mu)-rescaled main term: the limit shape ===")
rows = rescaled_limit_shape(cfg, [10, 20, 30, 40, 50, 60], 0.0, box)
for row in rows:
    print(f"  mu = {row.mu:>4}: value = {row.value:.8f}   envelope/value = "
          f"{envelope_fraction(row):.2e}")
print(f"limit 2^(n-d) * window factor = {0.5 * np.log(2.0):.8f}")
print(f"plateau gap between mu = 40 and 60: {plateau_gap(rows):.4%}")
