import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from hypcycles import bounds as bd
from hypcycles import cycles as cy
from hypcycles import decompose as dc
from hypcycles import lorentz as lz
from hypcycles import transform as tr
from hypcycles.cycles import PreparedCycle
from hypcycles.orbits import picard_generators
from hypcycles.quadrature import quad_gk

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
    # the transform's agreement: no gap where both sides underflow to 0.0
    assert bd.f_total_integral(3, 1e300) == (0.0, 0.0, math.inf)
    # the closed side is selberg_transform_closed, with its check
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError, match="mu must be positive"):
            bd.f_total_integral(3, mu)


def test_a_mu_below_the_transform_quadratures_range_is_refused_by_name():
    # at mu = 1e-300 the inner range sqrt(40 / z) overflowed and both calls ended in
    # "quad_family needs finite integration bounds" after two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: bd.f_total_integral(3, 1e-300),
                     lambda: bd.sigma0_model(CFG, 1e-300, 0.0, BOX)):
            with pytest.raises(ValueError, match=r"^mu must be large enough that the inner "
                                                 r"Gaussian integrals of d = \d stay finite on "
                                                 r"the outer range, got 1e-300$"):
                call()
        # the closed side alone still has a value there
        assert tr.selberg_transform_closed(3, 1e-300, 0.0) == pytest.approx(
            8.681998133290208e+303, rel=1e-12)


def test_box_domain():
    assert BOX.i_nu(0.0) == pytest.approx(np.log(2.0), rel=1e-14)
    assert BOX.i_nu(0.5) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(0.0, 2.0))
    with pytest.raises(ValueError):
        bd.BoxDomain(v_bounds=((0.0, np.inf),), r_bounds=(1.0, 2.0))


def test_box_integral_at_nu_zero_on_a_window_whose_ratio_overflows():
    # r_hi / r_lo = 1e600 overflowed, and i_nu returned inf; log r_hi - log r_lo does not
    box = bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1e-300, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert box.i_nu(0.0) == pytest.approx(600.0 * math.log(10.0), rel=1e-15)


def test_box_integral_that_overflows_is_refused_by_name():
    # v_volume 1e300 times the radial factor 5e199 once returned inf silently
    box = bd.BoxDomain(v_bounds=((0.0, 1e300),), r_bounds=(1.0, 1e100))
    message = ("nu must be an order whose window integral is finite on v_bounds "
               "((0.0, 1e+300),) and r_bounds (1.0, 1e+100), got (1+0j)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            box.i_nu(1.0)
        assert box.i_nu(-1.0) == pytest.approx(0.5e300, rel=1e-15)


@pytest.mark.parametrize("r_bounds", [(1.0, 2.0), (1.0, 1.0001), (1e-3, 1e3), (0.5, 3.0)],
                         ids=["1-2", "1-1.0001", "1e-3-1e3", "0.5-3"])
def test_box_integral_is_mpmaths_near_nu_zero(r_bounds):
    # (r_hi^a - r_lo^a)/a, a = 2 Re nu, once cancelled for small a: 1.2% off at nu = 6e-15 on
    # (1, 2), 0.0 on (1, 1.0001) for |a| <= 2e-13; mpmath's value takes 400 digits, as
    # r^a - 1 is about a log r
    box = bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=r_bounds)
    lo, hi = (mpmath.mpf(r) for r in r_bounds)
    for nu in (0.0, 3e-301, 6e-15, -6e-15, 1e-13, 1e-12, -1e-12, 1e-10, 1e-6, 0.3, -0.7, 2.5, 5.0):
        with mpmath.workdps(400):
            a = 2 * mpmath.mpf(nu)
            want = mpmath.log(hi / lo) if a == 0 else (hi ** a - lo ** a) / a
        assert abs(box.i_nu(nu) - want) <= 1e-14 * abs(want), nu


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
            for nu in (0.3, 0.3 + 0j, 0.3 + 0.5j):
                closed, quad, err = bd.sigma0_model(cfg, mu, nu, box)
                assert err < 1e-5
                # a complex-typed order gives a complex pair, 0.3+0j included,
                # as the transform's closed form does; a real one a float pair
                assert {type(closed), type(quad)} == {type(nu)}


# each result at nu = 0.3 (real part pinned) by its function's name; sigma0_model's closed
# side is the corrected box integral's (0.3535584003682207 before the expm1 form)
TYPED = {
    "bessel_k_scaled": (lambda nu: tr.bessel_k_scaled(nu, 1.5), 0.9812118388053497),
    "bessel_k_scaled_batch": (lambda nu: tr.bessel_k_scaled_batch(nu, [1.5]),
                              [0.9812118388053497]),
    "bessel_k_scaled_batch-empty": (lambda nu: tr.bessel_k_scaled_batch(nu, []), []),
    "selberg_transform_closed": (lambda nu: tr.selberg_transform_closed(3, 1.5, nu),
                                 1.8341703204761848),
    "selberg_transform_quadrature": (lambda nu: tr.selberg_transform_quadrature(3, 1.5, nu),
                                     1.834170320476185),
    "sigma0_model-closed": (lambda nu: bd.sigma0_model(CFG, 2.0, nu, BOX)[0], 0.35355840036822084),
    "sigma0_model-quadrature": (lambda nu: bd.sigma0_model(CFG, 2.0, nu, BOX)[1],
                                0.35355840036822056),
}


@pytest.mark.parametrize("nu, kind", [(0.3, float), (0.3 + 0j, complex), (0.3 + 1e-15j, complex)],
                         ids=["real", "complex", "complex-1e-15j"])
@pytest.mark.parametrize("name", list(TYPED))
def test_a_result_is_typed_by_its_order(name, nu, kind):
    # a complex-typed order gives a complex result, 0.3+0j and an order that counts as
    # real included; an array gives an array of that type, a scalar a Python number
    call, want = TYPED[name]
    got = call(nu)
    if isinstance(want, list):
        assert isinstance(got, np.ndarray) and got.dtype == np.dtype(kind)
        assert len(got) == len(want)
    else:
        assert isinstance(got, kind)
    if nu.imag == 0.0:
        assert np.asarray(np.real(got)).tolist() == want and not np.any(np.imag(got))
    else:   # the imaginary part moves the value by rounding only
        assert np.real(got) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert np.all(np.abs(np.imag(got)) <= 1e-15 * np.abs(np.real(got)))


def test_sigma0_model_refuses_a_box_of_another_dimension():
    # one v-interval at n = 3 gave both sides the same wrong volume, and an
    # agreement of 0.0
    with pytest.raises(ValueError, match=r"^v_bounds must be 2 finite interval\(s\)"):
        bd.sigma0_model(lz.CycleConfig(4, 3), 2.0, 0.3, BOX)


def test_rescaled_limit_shape_refuses_a_box_of_another_dimension():
    # one v-interval at n = 3 once gave a sweep whose window factor had the wrong dimension
    with pytest.raises(ValueError, match=r"^v_bounds must be 2 finite interval\(s\) \(lo, hi\) "
                                         r"with lo < hi, got \(\(0\.0, 1\.0\),\)$"):
        bd.rescaled_limit_shape(lz.CycleConfig(4, 3), [10.0, 20.0], 0.3, BOX)


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
    # a window is one interval per cycle direction, also at n = 2
    with pytest.raises(ValueError, match=r"^u_range must be 1 finite interval\(s\) .* "
                                         r"got \(-3\.0, 3\.0\)$"):
        bd.j_gamma_quadrature(g, (-3.0, 3.0), CFG, 5.0, 0.3)
    # so is a mu that is not positive and finite, before any table range is formed
    for mu in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mu must be positive"):
            bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3)
    # M = 0 flagged degenerate
    res = bd.j_gamma_quadrature(S @ U, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    assert res.degenerate
    # N_u vanishing inside the window (cusp-type representative) flagged too
    res = bd.j_gamma_quadrature(U @ S @ T, ((-3.0, 3.0),), CFG, 5.0, 0.3)
    assert res.degenerate and res.n_min < 1e-8


def test_j_gamma_takes_real_nu_by_the_library_rule():
    # |Im nu| <= transform.REAL_ORDER_IM counts as real; 1e-13 was once let through
    _, U, S = _picard()
    g = U @ S @ U
    message = "nu must be real (|Im| <= 1e-14), got (0.3+1e-13j)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, 5.0, 0.3 + 1e-13j)
    assert (bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, 5.0, 0.3 + 1e-15j)
            == bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, 5.0, 0.3))


@pytest.mark.usefixtures("fresh_j_caches")
@pytest.mark.parametrize("u_range", [((-3.0, np.nan),), ((-np.inf, 3.0),), ((3.0, -3.0),),
                                     ((1.0, 1.0),)],
                         ids=["nan", "inf", "reversed", "empty"])
def test_j_gamma_refuses_a_bad_window_before_the_scan(u_range):
    _, U, S = _picard()
    with pytest.raises(ValueError, match=r"^u_range must be 1 finite interval\(s\) \(lo, hi\) "
                                         r"with lo < hi, got"):
        bd.j_gamma_quadrature(U @ S @ U, u_range, CFG, 5.0, 0.3)
    # nothing was scanned or memoised
    assert bd._window_scan.cache_info().currsize == 0


def test_j_refuses_a_window_whose_scan_missed_an_n_u_zero():
    # N_u = n(u)^2 with n quadratic in u, zero at u = -0.6406 and 2.6171 for
    # this gamma; the scan's 33 points on (-1.3, 2.6) pass either side of the
    # narrow dip at -0.6406, so its polish settles at the edge u = 2.6, while
    # the window integral's nodes come close enough to -0.6406 to see the dip
    gamma = np.array([
        [1.0913279053198783, -0.29813036802006077, -0.12111272709002537, 0.29571369249818946],
        [0.38253199867882437, -0.33832320473041716, -0.5829485626792178, 0.8318888822579555],
        [0.054749390617308435, -0.5675463545307319, -0.5648890700635851, -0.6014889606256639],
        [-0.20412832028822214, 0.8076572669985665, -0.5964391037282142, -0.18335349942660475]])
    window = ((-1.3, 2.6),)
    n_min = bd._delta_scan(PreparedCycle(gamma, CFG), window)[1]
    assert n_min == pytest.approx(PreparedCycle(gamma, CFG).invariants([2.6]).N_u) and n_min > 1e-8
    with pytest.raises(RuntimeError, match="^window scan missed an N_u degeneration"):
        bd.j_gamma_quadrature(gamma, window, CFG, 5.0, 0.3)


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


def test_j_gamma_decay_check_refuses_fewer_than_two_mu():
    # no mu or one mu compares nothing, which once passed as ok = True
    _, U, S = _picard()
    res = {mu: bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, mu, 0.3)
           for mu in (5.0, 10.0)}
    for count in (0, 1):
        with pytest.raises(ValueError, match=f"^the decay check needs at least two mu, got {count}$"):
            bd.j_gamma_decay_check({mu: res[mu] for mu in list(res)[:count]}, slack_degree=2.0)
    assert bd.j_gamma_decay_check(res, slack_degree=2.0)[1]


def test_plateau_gap_names_a_mu_the_sweep_lacks():
    # a sweep without mu = 40 once raised a bare KeyError: 40.0
    rows = bd.rescaled_limit_shape(CFG, [10, 20, 60], 0.0, BOX)
    with pytest.raises(ValueError, match=re.escape(
            "the sweep has no row at mu = 40.0; its mu: [10.0, 20.0, 60.0]")):
        bd.plateau_gap(rows)
    assert bd.plateau_gap(rows, 20.0, 60.0) == bd.plateau_gap(rows, 20, 60)


def _two_direction_gamma():
    rng = np.random.default_rng(5)
    return (lz.make_unipotent([0.0, 0.0, 1.0], 4)
            @ lz.embed_rotation(lz.random_rotation(rng, 4))
            @ lz.make_unipotent([0.0, 1.0, 1.0], 4))


def test_j_gamma_two_direction_window():
    # n = 3: the direction window is two-dimensional
    cfg = lz.CycleConfig(4, 3)
    res = bd.j_gamma_quadrature(_two_direction_gamma(), ((-1.5, 1.5), (-1.5, 1.5)), cfg, 8.0, 0.2)
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
        prep, delta_min, n_min, centre, curv = bd._window_scan(g.tobytes(), g.shape, u_range, cfg)
        fresh = PreparedCycle(g, cfg)
        *mins, u_star = bd._delta_scan(fresh, u_range)
        assert (delta_min, n_min) == tuple(mins)
        assert np.array_equal(centre, u_star)
        assert np.array_equal(curv, bd._curvatures(fresh, u_star, u_range))
        assert prep.M == fresh.M
        # a repeat call returns the memoised scan
        assert bd._window_scan(g.tobytes(), g.shape, u_range, cfg)[0] is prep


@pytest.mark.usefixtures("fresh_j_caches")
def test_j_gamma_quadrature_work_is_pinned(monkeypatch):
    # the Bessel table's and the nested window's families; perfbench's
    # tracer wraps only quad_gk, so this count is the one record of J's work
    T, U, S = _picard()
    family = bd.quad_family
    total = []

    def counted(*args, **kwargs):
        res = family(*args, **kwargs)
        total.append(int(res.neval.sum()))
        return res

    monkeypatch.setattr(bd, "quad_family", counted)
    monkeypatch.setattr(tr, "quad_family", counted)
    res = bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, 20.0, 0.3)
    # 49,812 while the height integrals ran to where exp underflows, 15,204
    # while the window was integrated in u itself
    assert sum(total) == 8064
    assert res.log_value == -63.8655458334437
    # the asymptotics benchmark's J calls: three representatives at four mu,
    # 570,234 with the underflow ranges, 161,658 in u
    bd._window_scan.cache_clear()
    bd._k_table.cache_clear()
    total.clear()
    for g in (U @ S @ U, U @ U @ S @ U, U @ S @ U @ U):
        for mu in (5.0, 10.0, 20.0, 40.0):
            bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3)
    assert sum(total) == 90258


def _word(w):
    """The Picard word w; a lowercase letter is the inverse."""
    mats = dict(zip("TUS", _picard()))
    g = np.eye(4)
    for c in w:
        g = g @ (mats[c] if c.isupper() else lz.lorentz_inverse(mats[c.upper()]))
    return g


HEIGHT_CUT_CALLS = {
    # the work pins' calls: the asymptotics benchmark's, the pinned one among them
    "pinned": [(_word(w), ((-3.0, 3.0),), CFG, mu, 0.3)
               for w in ("USU", "UUSU", "USUU") for mu in (5.0, 10.0, 20.0, 40.0)],
    "length-6": [(_word(w), ((-3.0, 3.0),), CFG, mu, nu) for w in ("USUUSU", "UUSUSU", "USTTSU")
                 for mu in (5.0, 60.0) for nu in (0.0, 1.2)],
    "negative-nu": [(_word("USU"), ((-1.0, 1.0),), CFG, mu, -0.7) for mu in (5.0, 60.0)],
    "two-direction": [(_two_direction_gamma(), ((-1.5, 1.5), (-1.5, 1.5)), lz.CycleConfig(4, 3),
                       8.0, 0.2)],
}


@pytest.mark.parametrize("name", sorted(HEIGHT_CUT_CALLS))
def test_height_cut_drops_at_most_its_bound(name, monkeypatch):
    # what the cut drops of each height member's underflow range, log r from
    # log(sqrt(N_u)/W) - 2 to log(W/sqrt(M)) + 2 with W = (_EXP_CUT + 60)/mu
    # + 2 sqrt(delta_min), is at most the proven relative tail of the member
    cut, family = bd._height_cut, bd.quad_family
    waves = []

    def cut_spy(*args):
        x_lo, x_hi = cut(*args)
        waves.append({"M": args[3], "N_u": args[4], "x_lo": x_lo, "x_hi": x_hi})
        return x_lo, x_hi

    def family_spy(f, a, b, **kwargs):
        res = family(f, a, b, **kwargs)
        if waves and a is waves[-1]["x_lo"]:
            waves[-1].update(f=f, value=res.value)
        return res

    monkeypatch.setattr(bd, "_height_cut", cut_spy)
    monkeypatch.setattr(bd, "quad_family", family_spy)
    assert math.exp(bd._HEIGHT_TAIL) <= 1e-10
    worst = 0.0
    for gamma, u_range, cfg, mu, nu in HEIGHT_CUT_CALLS[name]:
        waves.clear()
        res = bd.j_gamma_quadrature(gamma, u_range, cfg, mu, nu)
        assert not res.degenerate
        w_old = (tr._EXP_CUT + 60.0) / mu + 2.0 * math.sqrt(res.delta_min)
        for wave in waves:
            m = len(wave["value"])
            a = np.concatenate([np.log(np.sqrt(wave["N_u"]) / w_old) - 2.0, wave["x_hi"]])
            b = np.concatenate([wave["x_lo"],
                                np.full(m, math.log(w_old / math.sqrt(wave["M"])) + 2.0)])
            owner = np.tile(np.arange(m), 2)
            keep = a < b
            a, b, owner = a[keep], b[keep], owner[keep]
            f = wave["f"]
            # one family, each member refined exactly as quad_gk refines it alone
            piece = family(lambda x, k: f(x, owner[k]), a, b, rel_tol=1e-6).value
            own = wave["value"][owner]
            assert (piece <= math.exp(bd._HEIGHT_TAIL) * own).all()
            # a member that underflows whole drops nothing
            ratio = piece / np.where(own > 0.0, own, np.inf)
            i = int(np.argmax(ratio))
            alone = quad_gk(lambda x: f(x, np.full(x.shape, owner[i])), a[i], b[i], rel_tol=1e-6)
            assert alone.value == piece[i]
            worst = max(worst, ratio[i])
    # the dropped tails come within a factor 1e3 of the bound
    assert worst > 1e-3 * math.exp(bd._HEIGHT_TAIL)


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

    monkeypatch.setattr(bd, "_element", spy("lorentz", bd._element))
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
    t10, between10 = bd.spectral_tail_bound(spec, 10.0)
    t20, _ = bd.spectral_tail_bound(spec, 20.0)
    t40, _ = bd.spectral_tail_bound(spec, 40.0)
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
    t, _ = bd.spectral_tail_bound(spec, 1000.0)
    assert t == 0.0


@pytest.mark.parametrize("r, mult, match", [
    ([1.0, 2.0], [3], "equal shapes"),
    ([1.0, 2.0], [[1, 1]], "equal shapes"),
    ([1.0, np.nan], [1, 1], "finite"),
    ([np.nan, 1.0], [1, 1], "finite"),
    ([1.0, np.inf], [1, 1], "finite"),
    ([1.0, 2.0], [1, np.nan], ">= 1"),
])
def test_spectrum_model_refuses_inputs_that_give_a_wrong_tail(r, mult, match):
    # a broadcast multiplicity, or a NaN frequency or multiplicity, would
    # pass silently into spectral_tail_bound
    with pytest.raises(ValueError, match=match):
        bd.SpectrumModel(3, 1.0, r=r, mult=mult)


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
    # an empty grid once ended in an IndexError
    with pytest.raises(ValueError, match="mu_grid must be nonempty"):
        bd.rescaled_limit_shape(CFG, [], 0.0, BOX)


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


NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-12}


def _nm_options(x0):
    """The port's options for scipy.  maxiter is passed as the port's cap,
    200 x dimension: scipy's default would cap the evaluations too."""
    return dict(NM_OPTIONS, maxiter=200 * len(x0))


def _rosenbrock(u):
    return float((1.0 - u[0]) ** 2 + 100.0 * (u[1] - u[0] ** 2) ** 2)


def _nm_cases():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=2), rng.uniform(0.5, 3.0, size=2)
    return {
        "1d-quadratic": (lambda u: float(b[0] * (u[0] - a[0]) ** 2), rng.normal(size=1)),
        "1d-wavy-from-zero": (lambda u: float(np.cos(3.0 * u[0]) + 0.1 * u[0] ** 2), np.zeros(1)),
        "2d-quadratic": (lambda u: float(np.sum(b * (u - a) ** 2)), rng.normal(size=2)),
        "2d-rosenbrock": (_rosenbrock, np.array([-1.2, 1.0])),
        "2d-wavy": (lambda u: float(np.sum(np.cos(3.0 * u)) + 0.1 * u @ u), rng.normal(size=2)),
        **{f"distance-d{d}-n{n}": _distance_case(rng, lz.CycleConfig(d, n))
           for d, n in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))},
    }


def _distance_case(rng, cfg):
    """The objective of min_dist_to_cycle at a seeded point off the cycle,
    with its start: the point's horospherical coordinates."""
    point = lz.random_lorentz(rng, cfg.d) @ dc.from_horospherical(
        rng.uniform(-1.0, 1.0, size=cfg.d - 1), float(np.exp(rng.uniform(-1.0, 1.0))))
    v, s = dc.to_horospherical(point)
    z = np.concatenate([v[:cfg.n - 1], [np.log(np.sqrt(s * s + v[cfg.n - 1:] @ v[cfg.n - 1:]))]])
    return (lambda z: cy._pairing_to_cycle(point, z[:-1], z[-1], cfg)), z


def _scipy_nelder_mead_equal_to_port(f, x0):
    """scipy's Nelder-Mead result, asserted bit-equal to the port's."""
    from scipy.optimize import minimize

    ref = minimize(f, x0, method="Nelder-Mead", options=_nm_options(x0))
    x, fun = cy._nelder_mead(f, x0)
    assert fun == ref.fun
    assert np.array_equal(x, ref.x)
    return ref


def test_nelder_mead_is_scipys_step_for_step():
    shrink_evals = {}
    for name, (f, x0) in _nm_cases().items():
        ref = _scipy_nelder_mead_equal_to_port(f, x0)
        # evaluations beyond the one or two of every iteration are shrink steps
        shrink_evals[name] = ref.nfev - (len(x0) + 1 + 2 * (ref.nit - 1))
    # the shrink branch is exercised in one and in two dimensions
    assert shrink_evals["1d-wavy-from-zero"] > 0
    assert shrink_evals["2d-wavy"] > 0


def test_nelder_mead_raises_at_its_iteration_cap():
    # where scipy reports failure, after maxiter = 200 x dimension
    # iterations, the port raises
    from scipy.optimize import minimize

    def unbounded(u):
        return -float(u[0])

    for dim, cap in ((1, 200), (5, 1000)):
        x0 = np.ones(dim)
        ref = minimize(unbounded, x0, method="Nelder-Mead", options=_nm_options(x0))
        assert not ref.success and ref.nit == cap
        with pytest.raises(RuntimeError, match=f"did not converge in {cap} iterations") as exc:
            cy._nelder_mead(unbounded, x0)
        assert f"value {ref.fun}" in str(exc.value)


@pytest.mark.parametrize("cfg, u_range", [
    (lz.CycleConfig(3, 2), ((-3.0, 3.0),)),
    (lz.CycleConfig(4, 3), ((-1.5, 1.5), (-1.5, 1.5))),
])
def test_delta_scan_polish_is_scipys(cfg, u_range):
    # the seeded gammas of test_window_scan_memo_equals_fresh_scan: both
    # objectives of the scan, polished by the port and by scipy, and the
    # scan's result, its window minimum included, is the one the scipy polish gives
    rng = np.random.default_rng(11)
    lo, hi = [lo for lo, _ in u_range], [hi for _, hi in u_range]
    for _ in range(3):
        prep = PreparedCycle(lz.random_lorentz(rng, cfg.d), cfg)
        pts, deltas, n_vals = bd._delta_grid(prep, u_range)
        mins, xs = [], []
        for values, field in ((deltas, "delta"), (n_vals, "N_u")):
            i0 = int(np.argmin(values))

            def objective(u, field=field):
                return getattr(prep.invariants(np.clip(u, lo, hi)), field)

            ref = _scipy_nelder_mead_equal_to_port(objective, pts[i0])
            mins.append(float(min(values[i0], ref.fun)))
            xs.append(ref.x)
        d_min, n_min, u_star = bd._delta_scan(prep, u_range)
        assert (d_min, n_min) == (max(mins[0], 1.0), max(mins[1], 0.0))
        # the window minimum is scipy's point for delta_u, clipped to the window
        assert np.array_equal(u_star, np.clip(xs[0], lo, hi))


@functools.lru_cache(maxsize=1)
def _codimension_one_minima():
    """(d, n, draw, PreparedCycle, 1 + 4 q) of each non-crossing element of 60
    random_lorentz draws (one rng 7, blocks drawn in the order (3, 2), (4, 2),
    (4, 3), (5, 3), (5, 4)) at each codimension-1 (d, n), over (-1, 1)^(n-1).

    There m and n(u) are scalars, delta_u = 1 + 4 max(m n(u), 0) and n(u) =
    c0 + C1.u + m |u|^2, read off at u = 0 and +-e_i.  So m n(u) = M |u - u*|^2
    + const with u* = -m C1/(2M), least on the box at the clip of u*, where it
    is q; q <= 0 is a crossing (delta_min = 1), and M < 1e-12 J's degenerate case.
    """
    rng = np.random.default_rng(7)
    draws = {dn: [lz.random_lorentz(rng, dn[0]) for _ in range(60)]
             for dn in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))}
    out = []
    for d, n in ((3, 2), (4, 3), (5, 4)):
        units = np.eye(n - 1)
        for draw, g in enumerate(draws[d, n]):
            prep = PreparedCycle(g, lz.CycleConfig(d, n))
            if prep.M < 1e-12:
                continue
            n_u = prep.invariants_batch(np.vstack([np.zeros(n - 1), units, -units])).n_coeffs[:, 0]
            m, c0, plus, minus = prep.m[0], n_u[0], n_u[1:n], n_u[n:]
            assert np.allclose(0.5 * (plus + minus) - c0, m, rtol=0.0, atol=1e-12)
            c1 = 0.5 * (plus - minus)
            u = np.clip(-m * c1 / (2.0 * prep.M), -1.0, 1.0)
            q = m * (c0 + c1 @ u + m * (u @ u))
            if q > 0.0:
                out.append((d, n, draw, prep, 1.0 + 4.0 * q))
    return out


# draws of the (5, 4) block whose minimum lies on the window's faces, at u about
# (0.135, -0.973, 0.999) and (0.994, 1, 1), where the scan reads delta_min high by
# 4.86e-7 and 3.97e-6
_SCAN_MISSES = ((5, 4, 34), (5, 4, 45))


def _scan_gap(prep, want):
    """The scan's delta_min over (-1, 1)^(n-1) against the closed minimum, relative."""
    return abs(bd._delta_scan(prep, ((-1.0, 1.0),) * (prep.cfg.n - 1))[0] - want) / want


def test_the_window_scan_finds_the_codimension_one_minimum():
    checked = {}
    for d, n, draw, prep, want in _codimension_one_minima():
        if (d, n, draw) not in _SCAN_MISSES:
            assert _scan_gap(prep, want) <= 4e-15, (d, n, draw)
            checked[d, n] = checked.get((d, n), 0) + 1
    assert checked == {(3, 2): 9, (4, 3): 5, (5, 4): 9}


@pytest.mark.xfail(strict=True, reason="the scan's known miss of a minimum on the window's faces")
@pytest.mark.parametrize("draw", [draw for *_, draw in _SCAN_MISSES])
def test_the_window_scan_finds_a_minimum_on_the_faces(draw):
    (case,) = [c for c in _codimension_one_minima() if c[:3] == (5, 4, draw)]
    assert _scan_gap(*case[3:]) <= 4e-15


def test_the_window_curvature_is_the_codimension_one_closed_form():
    # where the minimum u* lies inside the window, delta_u = 1 + 4 q + 4 M |u - u*|^2
    # near it, so sqrt(delta_u) has the curvature 4 M / sqrt(1 + 4 q) along every axis
    checked = 0
    for d, n, draw, prep, want in _codimension_one_minima():
        window = ((-1.0, 1.0),) * (n - 1)
        u_star = bd._delta_scan(prep, window)[2]
        if np.all(np.abs(u_star) < 0.99):
            curv = bd._curvatures(prep, u_star, window)
            assert np.allclose(curv, 4.0 * prep.M / math.sqrt(want), rtol=1e-4, atol=0.0), draw
            checked += 1
    assert checked == 9


@pytest.mark.usefixtures("fresh_j_caches")
@pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
def test_the_window_map_changes_the_variables_only(monkeypatch, kappa):
    # a curvature that is no peak's falls back to the axis's own length as the map's
    # width, which spreads the nodes over the window: J stays within its tolerances
    _, U, S = _picard()
    g, window = U @ S @ U, ((-3.0, 3.0),)
    want = bd.j_gamma_quadrature(g, window, CFG, 20.0, 0.3).log_value
    bd._window_scan.cache_clear()
    monkeypatch.setattr(bd, "_curvatures", lambda *args: np.array([kappa]))
    assert bd.j_gamma_quadrature(g, window, CFG, 20.0, 0.3).log_value == pytest.approx(
        want, rel=0.0, abs=1e-7)


@pytest.mark.parametrize("code", [
    "from hypcycles import CycleConfig, j_gamma_quadrature, picard_generators; "
    "T, U, S = picard_generators().matrices; "
    "j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CycleConfig(3, 2), 20.0, 0.3)",
    "import runpy; runpy.run_path('demos/06_large_mu_asymptotics.py', run_name='__main__')",
    "from hypcycles import cli; "
    "assert cli.main(['verify', '--d', '3', '--mu', '1', '--out', {out!r}]) == 0",
    "import runpy; runpy.run_path('demos/04_cycle_distances.py', run_name='__main__')",
], ids=["j-call", "demo-06", "verify", "demo-04"])
def test_j_loads_no_scipy(code, tmp_path, fresh_python):
    # scipy is blocked, so importing any part of it raises ImportError
    code = ("import sys; sys.modules['scipy'] = None; "
            + code.format(out=str(tmp_path / "verify.csv"))
            + "; print(sorted(m for m, mod in sys.modules.items() if mod is not None "
            "and (m == 'scipy' or m.startswith('scipy.'))))")
    out = fresh_python("-c", code, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("call, message", [
    (lambda: bd.SpectrumModel(3, 1.0, [2.0, 1.0], [1, 1]), "frequencies must be nondecreasing"),
    (lambda: bd.BoxDomain(((1.0, 1.0),), (1.0, 2.0)),
     "v_bounds must be finite interval(s) (lo, hi) with lo < hi, got (1.0, 1.0)"),
    (lambda: bd.BoxDomain(((0.0, 1.0),), (2.0, 1.0)),
     "r_bounds must be finite interval(s) (lo, hi) with lo < hi, got (2.0, 1.0)"),
], ids=["decreasing-frequencies", "empty-v-axis", "empty-r-axis"])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
