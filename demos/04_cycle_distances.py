#!/usr/bin/env python3
"""Distance from a translated geodesic to the cycle submanifold.

For gamma in SO(1,3) the squared-cosh distance from gamma n_u a_r . o to
the plane {x_3 = 0} is M r^2 + N_u r^{-2} + Q_u; minimizing over r gives
delta_u = 2 sqrt(M N_u) + Q_u.  Both are checked against brute-force
minimization over the cycle.
"""
import numpy as np

from hypcycles import CycleConfig, cycle_invariants, spin_cover_so13, verify_f_geometric
from hypcycles.cycles import min_dist_geodesic_to_cycle

cfg = CycleConfig(3, 2)
T = spin_cover_so13(np.array([[1, 1], [0, 1]], dtype=complex))
U = spin_cover_so13(np.array([[1, 1j], [0, 1]], dtype=complex))
S = spin_cover_so13(np.array([[0, -1], [1, 0]], dtype=complex))

print("=== the quadratic profile of one element ===")
g = U @ S @ U
inv = cycle_invariants(g, [0.4], cfg)
print(f"M = {inv.M:.6f}   N_u = {inv.N_u:.6f}   Q_u = {inv.Q_u:.6f}")
print(f"delta_u = 2 sqrt(M N) + Q = {inv.delta:.6f}, attained at r* = {inv.r_star:.6f}")
rs = np.geomspace(inv.r_star / 4, 4 * inv.r_star, 9)
print("f(r) along a grid (never below delta):")
for r in rs:
    print(f"  r = {r:8.4f}   f = {inv.f(r):10.4f}")

print("\n=== closed form vs brute-force point-to-cycle distance ===")
rng = np.random.default_rng(1)
print(f"{'u':>7} {'r':>7} {'closed':>12} {'brute force':>12} {'gap':>9}")
for _ in range(6):
    u = rng.uniform(-1.5, 1.5, size=1)
    r = float(np.exp(rng.uniform(-1, 1)))
    closed, brute, gap = verify_f_geometric(g, u, r, cfg)
    print(f"{u[0]:>7.3f} {r:>7.3f} {closed:>12.8f} {brute:>12.8f} {gap:>9.1e}")

print("\n=== delta as a geodesic-to-cycle distance ===")
closed = np.arccosh(np.sqrt(cycle_invariants(g, [0.4], cfg).delta))
brute = min_dist_geodesic_to_cycle(g, [0.4], cfg)
print(f"arccosh sqrt(delta) = {closed:.8f}")
print(f"brute-force minimum = {brute:.8f}")

print("\n=== a cusp-type element: the degenerate profile ===")
inv = cycle_invariants(U, [0.0], cfg)
print(f"translation off the cycle: M = {inv.M}, N_u = {inv.N_u}, Q_u = {inv.Q_u}")
print("f(r) -> 1 as r grows: the translated geodesic is asymptotic to the cycle")
