import math

import numpy as np
import pytest

from hypcycles import bounds as bd
from hypcycles import lorentz as lz
from hypcycles import transform as tr
from hypcycles.cycles import PreparedCycle
from hypcycles.orbits import picard_generators

CFG = lz.CycleConfig(3, 2)
BOX = bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1.0, 2.0))


def _picard():
    mats = dict(zip(picard_generators().labels, picard_generators().matrices))
    return mats["T"], mats["U"], mats["S"]


def test_weyl_count_basics():
    assert bd.weyl_count(0.0, 3, 1.0) == 0.0
    from scipy.special import gamma
    vol = (4 * np.pi) ** 1.5 * gamma(2.5)
    assert bd.weyl_count(2.0, 3, vol) == pytest.approx(8.0, rel=1e-12)
    assert bd.weyl_count(2.0, 3, 1.0) == pytest.approx(2 ** 3 * bd.weyl_count(1.0, 3, 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        bd.weyl_count(-1.0, 3, 1.0)


def test_synthetic_weyl_spectrum():
    spec = bd.SpectrumModel.synthetic_weyl(3, 1.0, 50.0)
    assert spec.r[0] == pytest.approx((1.0 / 0.016886863940346935) ** (1 / 3), rel=1e-6)
    assert np.all(np.diff(spec.r) > 0)
    # N(r_j) = j by construction
    for j in (1, 10, 100):
        assert bd.weyl_count(float(spec.r[j - 1]), 3, 1.0) == pytest.approx(j, rel=1e-10)


@pytest.mark.parametrize("d, volume, r_max", [(3, 1.0, 50.0), (2, 4.7, 30.0), (5, 0.3, 12.0)])
def test_synthetic_weyl_is_bit_identical_to_the_weyl_formula(d, volume, r_max):
    # the coefficient restated here, as the model once computed it
    c = volume / ((4.0 * np.pi) ** (d / 2.0) * math.gamma(d / 2.0 + 1.0))
    j = np.arange(1, int(np.floor(c * r_max ** d)) + 1, dtype=float)
    spec = bd.SpectrumModel.synthetic_weyl(d, volume, r_max)
    assert len(spec.r) == len(j) > 0
    assert (spec.r == (j / c) ** (1.0 / d)).all()


def test_f_total_integral():
    closed, quad, err = bd.f_total_integral(3, 1.0)
    assert closed == pytest.approx(8.0 * (np.pi / 2.0) * tr.bessel_k(1.0, 1.0), rel=1e-12)
    assert err < 1e-6
    # decreasing in mu
    vals = [bd.f_total_integral(3, mu)[0] for mu in (0.5, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2]
    for d in (3, 4, 5):
        for mu in (0.5, 1.0, 2.0):
            assert bd.f_total_integral(d, mu)[2] < 1e-6


def test_box_domain():
    assert BOX.i_nu(0.0) == pytest.approx(np.log(2.0), rel=1e-14)
    assert BOX.i_nu(0.5) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(0.0, 2.0))
    with pytest.raises(ValueError):
        bd.BoxDomain(v_bounds=((0.0, np.inf),), r_bounds=(1.0, 2.0))


def test_sigma0_model_example():
    closed, quad, err = bd.sigma0_model(CFG, 1.0, 0.0, BOX)
    expected = 4.0 * np.sqrt(np.pi / 2.0) * tr.bessel_k(0.0, 1.0) * np.log(2.0)
    assert closed == pytest.approx(expected, rel=1e-12)
    assert err < 1e-5


def test_sigma0_model_grid():
    for (d, n) in [(3, 2), (4, 2), (4, 3)]:
        cfg = lz.CycleConfig(d, n)
        box = bd.BoxDomain(v_bounds=tuple((0.0, 1.0) for _ in range(n - 1)),
                           r_bounds=(1.0, 2.0))
        for mu in (2.0,):
            for nu in (0.3,):
                _, _, err = bd.sigma0_model(cfg, mu, nu, box)
                assert err < 1e-5


def test_j_gamma_basics():
    T, U, S = _picard()
    g = U @ S @ U
    res = bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    assert not res.degenerate
    assert np.isfinite(res.log_value)
    assert res.delta_min >= 1.0
    # block elements are excluded by precondition
    with pytest.raises(ValueError):
        bd.j_gamma_quadrature(T, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    # complex spectral parameter rejected
    with pytest.raises(ValueError):
        bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, 5.0, 1j)
    # so is a mu that is not positive, before any table range is formed
    for mu in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="mu must be positive"):
            bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3)
    # M = 0 flagged degenerate
    res = bd.j_gamma_quadrature(S @ U, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    assert res.degenerate
    # N_u vanishing inside the window (cusp-type representative) flagged too
    res = bd.j_gamma_quadrature(U @ S @ T, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    assert res.degenerate and res.n_min < 1e-8


def test_j_gamma_decay_and_ordering():
    T, U, S = _picard()
    res = {}
    for mu in (5.0, 10.0, 20.0):
        res[mu] = bd.j_gamma_quadrature(T @ U @ S @ U, ((-3.0, 3.0),), CFG, mu, 0.3)
    stats, ok = bd.j_gamma_decay_check(res, slack_degree=2.0)
    assert ok
    assert stats[0] > stats[-1]
    # smaller delta gives the larger J at large mu
    near = bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, 30.0, 0.3)
    far = bd.j_gamma_quadrature(U @ U @ S @ U, ((-3.0, 3.0),), CFG, 30.0, 0.3)
    assert near.delta_min < far.delta_min
    assert near.log_value > far.log_value


def test_j_gamma_two_direction_window():
    # n = 3: the direction window is two-dimensional
    cfg = lz.CycleConfig(4, 3)
    rng = np.random.default_rng(5)
    g = (lz.make_unipotent([0.0, 0.0, 1.0], 4)
         @ lz.embed_rotation(lz.random_rotation(rng, 4))
         @ lz.make_unipotent([0.0, 1.0, 1.0], 4))
    res = bd.j_gamma_quadrature(g, ((-1.5, 1.5), (-1.5, 1.5)), cfg, 8.0, 0.2)
    assert not res.degenerate
    assert np.isfinite(res.log_value)
    assert res.delta_min > 1.0


@pytest.mark.usefixtures("fresh_j_caches")
def test_j_gamma_independent_of_call_order():
    # the shared Bessel table is a function of its key, never of which mu
    # came first: mu = 40 then 5 gives the values of 5 then 40
    T, U, S = _picard()
    g = U @ S @ U
    first = {mu: bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3) for mu in (40.0, 5.0)}
    bd._window_scan.cache_clear()
    bd._k_table.cache_clear()
    second = {mu: bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3) for mu in (5.0, 40.0)}
    assert first == second


@pytest.mark.usefixtures("fresh_j_caches")
@pytest.mark.parametrize("cfg, u_range", [
    (lz.CycleConfig(3, 2), ((-3.0, 3.0),)),
    (lz.CycleConfig(4, 3), ((-1.5, 1.5), (-1.5, 1.5))),
])
def test_window_scan_memo_equals_fresh_scan(cfg, u_range):
    # seeded gammas whose window minima fall between the grid points, so
    # the Nelder-Mead polish moves them
    rng = np.random.default_rng(11)
    for _ in range(3):
        g = lz.random_lorentz(rng, cfg.d)
        prep, delta_min, n_min = bd._window_scan(g.tobytes(), g.shape, u_range, cfg)
        fresh = PreparedCycle(g, cfg)
        assert (delta_min, n_min) == bd._delta_scan(fresh, u_range)
        assert prep.M == fresh.M
        # a repeat call returns the memoised scan
        assert bd._window_scan(g.tobytes(), g.shape, u_range, cfg)[0] is prep


@pytest.mark.usefixtures("fresh_j_caches")
def test_j_gamma_table_self_audit_still_runs(monkeypatch):
    # a 1e-6 error in the last values of the shared table trips its audit
    T, U, S = _picard()
    batch = tr.bessel_k_scaled_batch

    def perturbed(order, z):
        z = np.atleast_1d(z)
        return batch(order, z) * np.where(z > 0.97 * z.max(), 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(tr, "bessel_k_scaled_batch", perturbed)
    with pytest.raises(RuntimeError, match="self-audit"):
        bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, 5.0, 0.3)


def test_j_gamma_checks_run_on_every_call(monkeypatch):
    # the Lorentz and G0 checks are not memoised with the window scan
    T, U, S = _picard()
    calls = []

    def spy(name, check):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bd, "require_lorentz", spy("lorentz", bd.require_lorentz))
    monkeypatch.setattr(bd, "check_membership", spy("G0", bd.check_membership))
    for _ in range(2):
        bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    assert calls == ["lorentz", "G0"] * 2


def test_nested_quadrature_over_a_box():
    # one family per level; a product integrand gives the product of the
    # one-dimensional integrals
    f = lambda p: np.exp(-p[:, 0]) * np.cos(p[:, 1]) * (1.0 + p[:, 2] ** 2)
    val = bd._nested_quad(f, ((0.0, 2.0), (-1.0, 0.5), (0.0, 1.0)), 1e-10)[0]
    exact = (1.0 - np.exp(-2.0)) * (np.sin(0.5) + np.sin(1.0)) * (4.0 / 3.0)
    assert val == pytest.approx(exact, rel=1e-10)


def test_spectral_tail_bound():
    spec = bd.SpectrumModel.synthetic_weyl(3, 1.0, 90.0)
    t10, between10 = bd.spectral_tail_bound(spec, 1.0, 10.0)
    t20, _ = bd.spectral_tail_bound(spec, 1.0, 20.0)
    t40, _ = bd.spectral_tail_bound(spec, 1.0, 40.0)
    assert t10 > t20 > t40 > 0
    assert between10 == pytest.approx(t10 - t20, rel=1e-12)
    # doubling the cutoff shrinks the tail at the exponential rate
    # (polynomial slack absorbed in the margin)
    assert t20 / t40 > np.exp(0.5 * np.pi * 10.0)
    # integral comparison: the tail is within a factor 2 of the integral
    # of x^d e^{-pi x/2} against the Weyl density
    from scipy.integrate import quad as sciquad
    c = 3.0 / ((4 * np.pi) ** 1.5 * 1.3293403881791368)
    ref, _ = sciquad(lambda x: c * x ** 2 * x ** 3 * np.exp(-0.5 * np.pi * x), 20.0, 90.0)
    assert 0.5 < t20 / ref < 2.0
    # empty tail
    t, _ = bd.spectral_tail_bound(spec, 1.0, 1000.0)
    assert t == 0.0


def test_rescaled_limit_shape():
    rows = bd.rescaled_limit_shape(CFG, [10, 20, 30, 40, 50, 60], 0.0, BOX)
    vals = [r.value for r in rows]
    # converges to 2^(n-d) I_nu; at mu = 60 the deviation is the first
    # Bessel correction (4 nu^2 - 1)/(8 mu) = -1/480
    limit = 0.5 * np.log(2.0)
    assert vals[-1] == pytest.approx(limit * (1.0 - 1.0 / 480.0), rel=1e-4)
    assert vals[-1] == pytest.approx(limit, rel=5e-3)
    # successive differences shrink monotonically beyond mu ~ 20
    diffs = [abs(b - a) for a, b in zip(vals[1:], vals[2:])]
    assert all(x > y for x, y in zip(diffs, diffs[1:]))
    assert bd.plateau_gap(rows) < 1e-2
    assert bd.envelope_fraction(rows[-1]) < 1e-2
    # envelope is o(1): smaller at 60 than at 30
    env = {r.mu: r.envelope for r in rows}
    assert env[60.0] < env[30.0]
    # stated envelope value at mu = 50 for (3, 2)
    assert env[50.0] == pytest.approx(50.0 ** -1.5, rel=1e-12)
    with pytest.raises(ValueError):
        bd.rescaled_limit_shape(CFG, [10, 70], 0.0, BOX)
    with pytest.raises(ValueError):
        bd.rescaled_limit_shape(CFG, [20, 10], 0.0, BOX)


def test_rescaled_limit_shape_tracks_bessel_asymptotics():
    # with the closed form in place, the sweep equals
    # 2^(n-d) I_nu sqrt(2 mu/pi) e^mu K_nu(mu) -> the Bessel ratio limit
    rows = bd.rescaled_limit_shape(CFG, [40.0], 0.3, BOX)
    expect = (0.5 * BOX.i_nu(0.3)
              * np.sqrt(2 * 40.0 / np.pi) * tr.bessel_k_scaled(0.3, 40.0))
    assert rows[0].value == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("cfg, u_range", [
    (lz.CycleConfig(3, 2), ((-3.0, 3.0),)),
    (lz.CycleConfig(4, 3), ((-1.5, 1.5), (-1.5, 1.5))),
])
def test_delta_grid_equals_per_point_loop(cfg, u_range):
    # the scan grid from one batch call against the scalar invariants,
    # one window point at a time
    rng = np.random.default_rng(7)
    prep = PreparedCycle(lz.random_lorentz(rng, cfg.d), cfg)
    pts, deltas, n_vals = bd._delta_grid(prep, u_range)
    assert pts.shape == (33 ** (cfg.n - 1), cfg.n - 1)
    loop = [prep.invariants(u) for u in pts]
    assert np.array_equal(deltas, [inv.delta for inv in loop])
    assert np.array_equal(n_vals, [inv.N_u for inv in loop])
