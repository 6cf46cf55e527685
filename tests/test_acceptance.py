"""Acceptance suite: one test per criterion, tolerances pinned, and a work
guard on c2's draws.

Each test prints a single [PASS]/[FAIL] line (run pytest -s or check the
captured output).  Criterion 9 holds K_nu(50) to its Hankel expansion with
the DLMF 10.40 remainder bound, not to the leading term alone, which for
order i is 1.23% off at mu = 50.
"""

import time

import numpy as np
import pytest

from hypcycles import bounds as bd
from hypcycles import cycles as cy
from hypcycles import decompose as dc
from hypcycles import lorentz as lz
from hypcycles import orbits as ob
from hypcycles import transform as tr
from hypcycles.quadrature import quad_gk

CFG = lz.CycleConfig(3, 2)


def _report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    return ok


def _picard():
    mats = dict(zip(ob.picard_generators().labels, ob.picard_generators().matrices))
    return mats["T"], mats["U"], mats["S"]


def test_c1_transform_agreement():
    t0 = time.time()
    worst = 0.0
    for d in (3, 4, 5):
        rho = (d - 1) / 2.0
        for mu in (0.5, 1.0, 2.0, 5.0):
            for nu in (0.0, 0.3, 0.9 * rho, 1j, 2j):
                hc = tr.selberg_transform_closed(d, mu, nu)
                hq = tr.selberg_transform_quadrature(d, mu, nu, rel_tol=1e-10)
                worst = max(worst, abs(hc - hq) / max(abs(hc), 1e-300))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    assert _report(1, ok, f"transform closed vs quadrature, 60 combos: "
                          f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)")


def _c2_draws():
    """c2's seeded draws, 50 per identity, as (identity, args): 3.471.9 with
    alpha, beta in [0.3, 3] and nu real in [-2.5, 2.5] or imaginary up to
    2.5i; 6.726.4 with a, b in [0.4, 2.5], c in [0, 2.5], nu in [-1.5, 1.5]
    and either sign; 6.592.12 with a in [0.4, 2.5], b in [-2, 2], c in
    [0.5, 2.5]."""
    rng = np.random.default_rng(2024)
    draws = []
    for _ in range(50):
        al, be = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        nu = rng.uniform(-2.5, 2.5) if rng.uniform() < 0.5 else 1j * rng.uniform(0.0, 2.5)
        draws.append(("3.471.9", (al, be, nu)))
    for _ in range(50):
        a, b = rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5)
        c, nu = rng.uniform(0.0, 2.5), rng.uniform(-1.5, 1.5)
        draws.append(("6.726.4", (a, b, c, nu, (-1) ** int(rng.integers(2)))))
    for _ in range(50):
        draws.append(("6.592.12", (rng.uniform(0.4, 2.5), rng.uniform(-2.0, 2.0),
                                   rng.uniform(0.5, 2.5))))
    return draws


GR_IDENTITIES = {"3.471.9": tr.gr_identity_3_471_9, "6.726.4": tr.gr_identity_6_726_4,
                 "6.592.12": tr.gr_identity_6_592_12}


def test_c2_gr_identity_suite():
    t0 = time.time()
    worst = dict.fromkeys(GR_IDENTITIES, 0.0)
    for name, args in _c2_draws():
        worst[name] = max(worst[name], GR_IDENTITIES[name](*args)[2])
    elapsed = time.time() - t0
    ok = max(worst.values()) < 1e-7 and elapsed < 30.0
    assert _report(2, ok, f"integral identities, 50 draws each: worst rel errs "
                          f"{ {k: float(f'{v:.2e}') for k, v in worst.items()} } "
                          f"(tol 1e-7), {elapsed:.1f}s (< 30s)")


def _untransformed_lhs(name, args):
    """The integral side of 6.726.4 (over x in [0, X]) or 6.592.12 (over
    tau in [0, tau_max]) before its double-exponential substitution, with
    the cuts of transform.py: the reference for the work of the substituted
    integrand."""
    if name == "6.726.4":
        a, b, c, nu, s = args
        X = (tr._EXP_CUT + 60.0 + (abs(nu) + 1.0) * 20.0) / a + b + 1.0

        def f(x):
            z = a * np.sqrt(x * x + b * b)
            kv = tr.bessel_k_scaled_batch(complex(nu), z) * np.exp(-z)
            return (x * x + b * b) ** (-s * nu / 2.0) * kv * np.cos(c * x)

        return quad_gk(f, 0.0, X, rel_tol=tr.GR_REL_TOL)
    a, b, c = args
    p = abs(2.0 * c - 1.0) + abs(b) + 2.0
    tau_max = (tr._EXP_CUT + 40.0) / a + 1.0
    for _ in range(4):
        tau_max = (tr._EXP_CUT + 40.0 + p * np.log1p(tau_max)) / a + 1.0

    def f(tau):
        x = 1.0 + tau * tau
        zarg = a * np.sqrt(x)
        kv = tr.bessel_k_scaled_batch(-b, zarg) * np.exp(-zarg)
        return 2.0 * tau ** (2.0 * c - 1.0) * x ** (-b / 2.0) * kv

    return quad_gk(f, 0.0, tau_max, rel_tol=tr.GR_REL_TOL)


# the share of the untransformed evaluations the substituted integral side may
# use on c2's draws; 6.726.4's cos(c x) turns into cos(c sinh(y)/a), whose
# faster oscillation costs back part of the saving (measured 0.417 and 0.550)
WORK_SHARE = {"6.592.12": 0.5, "6.726.4": 0.6}


@pytest.mark.parametrize("name", sorted(WORK_SHARE))
def test_c2_substituted_integrals_cut_the_work(monkeypatch, name):
    """On c2's draws the integral side of 6.726.4 and 6.592.12, taken in its
    double-exponential variable, uses at most WORK_SHARE of the integrand
    evaluations of the untransformed integral, and meets its closed form to
    1e-13 (the untransformed 6.592.12 reached 2.45e-11)."""
    neval = []

    def counted(*args, **kwargs):
        res = quad_gk(*args, **kwargs)
        neval.append(res.neval)
        return res

    monkeypatch.setattr(tr, "quad_gk", counted)
    used = ref = 0
    worst = 0.0
    for draw, args in _c2_draws():
        if draw == name:
            neval.clear()
            worst = max(worst, GR_IDENTITIES[name](*args)[2])
            used += neval[0]        # the integral side's one quad_gk
            ref += _untransformed_lhs(name, args).neval
    assert worst <= 1e-13
    assert used <= WORK_SHARE[name] * ref, (used, ref)


def test_c3_distance_duality_and_roundtrips():
    rng = np.random.default_rng(3)
    worst_dist = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        u, r = 2 * rng.uniform(-1, 1, d - 1), float(np.exp(rng.uniform(-1, 1)))
        v, t = 2 * rng.uniform(-1, 1, d - 1), float(np.exp(rng.uniform(-1, 1)))
        a = dc.dist(dc.from_horospherical(u, r), dc.from_horospherical(v, t))
        b = dc.dist_horospherical(u, r, v, t)
        worst_dist = max(worst_dist, abs(a - b))
    worst_rt = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        g = lz.random_lorentz(rng, d)
        for fac in (dc.nak(g), dc.ank(g), dc.kak(g)):
            worst_rt = max(worst_rt, float(np.max(np.abs(fac.product() - g))))
    ok = worst_dist < 1e-10 and worst_rt < 1e-9
    assert _report(3, ok, f"distance duality worst {worst_dist:.2e} (tol 1e-10), "
                          f"NAK/ANK/KAK roundtrip worst {worst_rt:.2e} (tol 1e-9), "
                          f"1000 draws each")


def test_c4_cycle_geometry():
    rng = np.random.default_rng(4)
    ball = ob.ball_enumerate(ob.picard_generators(), 4)
    mats = ball.mats

    worst_gap = 0.0
    worst_inf = 0.0
    n_draws = 0
    n_degenerate = 0
    while n_draws < 200:
        g = mats[int(rng.integers(len(mats)))]
        u = rng.uniform(-2, 2, size=1)
        r = float(np.exp(rng.uniform(-1.2, 1.2)))
        closed, brute, gap = cy.verify_f_geometric(g, u, r, CFG)
        worst_gap = max(worst_gap, gap)
        inv = cy.cycle_invariants(g, u, CFG)
        if min(inv.M, inv.N_u) > 1e-20:
            # grid through the analytic minimum: inf_r f equals delta
            grid = np.unique(np.concatenate([
                np.geomspace(inv.r_star / 3, 3 * inv.r_star, 301), [inv.r_star]]))
            worst_inf = max(worst_inf, abs(float(np.min(inv.f(grid))) - inv.delta))
        else:
            # M N_u = 0: the infimum is attained in the limit and the
            # formula collapses to Q = delta = 1 (up to the residual M N)
            n_degenerate += 1
            assert inv.Q_u == pytest.approx(1.0, abs=1e-7)
            assert inv.delta == pytest.approx(1.0, abs=1e-7)
        n_draws += 1

    # delta constant on left cosets
    table = ob.coset_reduce(ball, CFG, mode="left")
    trivial = table.ids[table.words.index("e")]
    by_class = {}
    for cid, m in zip(table.ids.tolist(), table.mats):
        by_class.setdefault(cid, []).append(m)
    worst_spread = 0.0
    u0 = np.array([0.4])
    for cid, members in by_class.items():
        if cid == trivial or len(members) < 2:
            continue
        vals = [cy.delta_u(m, u0, CFG) for m in members[:3]]
        worst_spread = max(worst_spread, max(vals) - min(vals))
    ok = worst_gap < 1e-6 and worst_inf < 1e-9 and worst_spread < 1e-8
    assert _report(4, ok, f"closed form vs brute-force distance over {n_draws} draws "
                          f"({n_degenerate} degenerate): worst gap {worst_gap:.2e} "
                          f"(tol 1e-6); inf_r f vs delta worst {worst_inf:.2e} "
                          f"(tol 1e-9); left-coset delta spread {worst_spread:.2e} "
                          f"(tol 1e-8)")


def test_c5_counting_law():
    t0 = time.time()
    ball = ob.ball_enumerate(ob.picard_generators(), 8)
    table = ob.coset_reduce(ball, CFG, mode="double")
    spec = ob.delta_spectrum(table, [0.0], CFG)
    deltas = [e.delta for e in spec.entries]
    grid = np.geomspace(1.0, max(deltas) * 1.05, 60)
    _, slope = ob.counting_function(spec, grid)
    stat_min, _ = ob.ordering_statistic(spec, CFG)
    elapsed = time.time() - t0
    bound = (CFG.d - CFG.n) / 2.0 + 0.3
    # 214 double classes less the trivial one, pinned at the bundled run
    ok = len(spec.entries) == 213 and slope <= bound and stat_min > 0 and elapsed < 300.0
    assert _report(5, ok, f"word-length-8 experiment: {len(spec.entries)} classes (213), "
                          f"fitted slope {slope:.3f} <= {bound}, ordering statistic "
                          f"min {stat_min:.4f} > 0, {elapsed:.0f}s (< 300s)")


def test_c6_error_term_decay():
    t0 = time.time()
    T, U, S = _picard()
    # representatives with M > 0 and inf N_u > 0 on the window, i.e. the
    # positivity a good double-coset representative must satisfy
    gammas = {"near": U @ S @ U, "mid": U @ U @ S @ U, "far": U @ S @ U @ U}
    ok = True
    details = []
    for name, g in gammas.items():
        res = {}
        for mu in (5.0, 10.0, 20.0, 40.0):
            res[mu] = bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3)
        stats, mono = bd.j_gamma_decay_check(res, slack_degree=(CFG.n + 2) / 2.0)
        ok = ok and mono
        details.append(f"{name}: delta_min={res[5.0].delta_min:.2f} "
                       f"stat {stats[0]:.1f} -> {stats[-1]:.1f} mono={mono}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    assert _report(6, ok, f"log J + mu sqrt(delta_min)/2 non-increasing over "
                          f"mu in 5..40 (log-poly slack): {'; '.join(details)}; "
                          f"{elapsed:.0f}s (< 120s)")


def test_c7_main_term_model():
    worst = 0.0
    for (d, n) in [(3, 2), (4, 2), (4, 3)]:
        cfg = lz.CycleConfig(d, n)
        box = bd.BoxDomain(v_bounds=tuple((0.0, 1.0) for _ in range(n - 1)),
                           r_bounds=(1.0, 2.0))
        for mu in (1.0, 2.0):
            for nu in (0.0, 0.3):
                worst = max(worst, bd.sigma0_model(cfg, mu, nu, box)[2])
    box = bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1.0, 2.0))
    rows = bd.rescaled_limit_shape(CFG, [30.0, 40.0, 50.0, 60.0], 0.0, box)
    gap = bd.plateau_gap(rows, 40.0, 60.0)
    env = bd.envelope_fraction(rows[-1])
    ok = worst < 1e-5 and gap < 1e-2 and env < 1e-2
    assert _report(7, ok, f"main-term closed vs quadrature worst {worst:.2e} "
                          f"(tol 1e-5); rescaled plateau gap 40->60 {gap:.2%} "
                          f"(< 1%); envelope/main at mu=60 {env:.2e} (< 1e-2)")


def test_c8_spectral_tail():
    spec = bd.SpectrumModel.synthetic_weyl(3, 1.0, 90.0)
    tail40, _ = bd.spectral_tail_bound(spec, 40.0)
    sel = spec.r <= 10.0
    partial10 = float(np.sum(spec.mult[sel] * spec.r[sel] ** 3
                             * np.exp(-0.5 * np.pi * spec.r[sel])))
    ratio = tail40 / partial10
    ok = ratio < 1e-20
    assert _report(8, ok, f"synthetic Weyl spectrum (d=3, vol=1): tail beyond "
                          f"R=40 is {ratio:.2e} of the R=10 partial sum (< 1e-20)")


def test_c9_bessel_bounds():
    failures = []

    imag = abs(tr.bessel_k(2j, 1.0).imag)
    if imag >= 1e-12:
        failures.append(f"imaginary part {imag:.1e} >= 1e-12")

    # Hankel expansion, DLMF 10.40.2, of K_nu(z) over its leading term
    # sqrt(pi/2z) e^{-z}:  1 + a_1(nu)/z + R_2(nu, z), with
    # a_1 = (4 nu^2 - 1)/8 and a_2 = (4 nu^2 - 1)(4 nu^2 - 9)/128.
    # DLMF 10.40.10 bounds the remainder for complex order nu and complex z
    # (section 10.40(iii), any nu, l = 1, 2, ...); with the variation bound
    # 10.40.11 for |ph z| <= pi/2 it reads, at real z = mu and l = 2,
    #     |R_2(nu, mu)| <= 2 |a_2(nu)| / mu^2 * exp(|nu^2 - 1/4| / mu).
    # At mu = 50 that is 5.65e-5 for nu = 0 and 4.17e-4 for nu = i.  The
    # leading term alone is held to 1% for nu = 0 only: for nu = i the first
    # correction a_1/mu is -1.25% by itself.
    mu = 50.0
    ratios, residuals = {}, {}
    for label, nu in (("0", 0.0), ("i", 1j)):
        ratio = float(np.real(tr.bessel_k(nu, mu))) / tr.bessel_k_asymptotic(mu)
        nu2 = complex(nu) ** 2
        a1 = ((4.0 * nu2 - 1.0) / 8.0).real
        a2 = (4.0 * nu2 - 1.0) * (4.0 * nu2 - 9.0) / 128.0
        residual = abs(ratio - (1.0 + a1 / mu))
        bound = 2.0 * abs(a2) / mu**2 * np.exp(abs(nu2 - 0.25) / mu)
        ratios[label] = ratio
        residuals[label] = (residual, bound)
        if residual > bound:
            failures.append(
                f"nu={label}: |K/lead - (1 + a_1/mu)| = {residual:.3e} > "
                f"DLMF 10.40.10-11 bound {bound:.3e} at mu={mu:g}"
            )
    if abs(ratios["0"] - 1.0) >= 0.01:
        failures.append(f"nu=0: |K/lead - 1| = {abs(ratios['0'] - 1.0):.4f} "
                        f">= 1% at mu={mu:g}")

    # |K_{ir}(1)| e^{pi r/2} / r bounded over r in [5, 40]: fit one constant
    # on a coarse grid, then hold it (with headroom) on a fine grid
    coarse = np.linspace(5.0, 40.0, 8)
    fine = np.linspace(5.0, 40.0, 71)
    c_fit = max(abs(tr.bessel_k_imag_scaled(r, 1.0)) / r for r in coarse)
    worst_fine = max(abs(tr.bessel_k_imag_scaled(r, 1.0)) / r for r in fine)
    if not np.isfinite(worst_fine) or worst_fine > 1.05 * max(c_fit, 0.25):
        failures.append(f"scaled bound not uniform: fit C={c_fit:.3f}, "
                        f"fine-grid max {worst_fine:.3f}")

    ok = not failures
    hankel = ", ".join(f"nu={k} {r:.2e} (bound {b:.2e})" for k, (r, b) in residuals.items())
    detail = (f"K_(2i)(1) imag {imag:.1e} (< 1e-12); K/lead at mu=50 for nu=0 "
              f"{ratios['0']:.5f} (tol 1%); residual after the first Hankel "
              f"correction vs DLMF 10.40.10-11 bound: {hankel}; "
              f"scaled-bound constant {c_fit:.3f} uniform over r in [5,40]")
    if failures:
        detail += " | failing: " + " & ".join(failures)
    assert _report(9, ok, detail), "; ".join(failures)
