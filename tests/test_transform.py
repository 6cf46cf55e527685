import re
import warnings

import numpy as np
import pytest
from scipy.special import kv

from hypcycles import transform as tr
from hypcycles.quadrature import FamilyResult, quad_family, quad_gk

# Reference values computed with a 30-digit arbitrary-precision evaluation
# of the defining integral (independent tanh-sinh quadrature cross-check).
K0_1 = 0.42102443824070833
K1_1 = 0.60190723019723457
K_HALF_1 = 0.46106850444789456
K0_50 = 3.4101677497894955e-23
K_I_1 = 0.28942803702599213
K_2I_1 = 0.080616997622365979
K_2I_05 = 0.016502018949481443
SCALED_R15_X1 = -0.50132004680096026
SCALED_R25_X1 = -0.48776445090921992
SCALED_R40_X1 = -0.3296770508077863


def test_phi_mu_values_and_validation():
    assert tr.phi_mu(1.0, 0.0) == pytest.approx(np.exp(-1.0))
    assert tr.phi_mu(2.0, 0.0) == pytest.approx(np.exp(-2.0))
    assert tr.phi_mu(1.0, float(np.arccosh(3.0))) == pytest.approx(np.exp(-3.0))
    x = np.linspace(0, 3, 20)
    vals = tr.phi_mu(0.7, x)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        tr.phi_mu(-1.0, 0.5)
    with pytest.raises(ValueError):
        tr.phi_mu(1.0, -0.5)


def test_bessel_half_integer_closed_form():
    for x in (0.5, 1.0, 2.0, 10.0):
        assert tr.bessel_k(0.5, x) == pytest.approx(np.sqrt(np.pi / (2 * x)) * np.exp(-x), rel=1e-10)


def test_bessel_reference_values():
    assert tr.bessel_k(0.0, 1.0) == pytest.approx(K0_1, rel=1e-10)
    assert tr.bessel_k(1.0, 1.0) == pytest.approx(K1_1, rel=1e-10)
    assert tr.bessel_k(0.0, 50.0) == pytest.approx(K0_50, rel=1e-9)
    got = tr.bessel_k(1j, 1.0)
    assert got.real == pytest.approx(K_I_1, rel=1e-9)
    assert abs(got.imag) < 1e-12
    assert tr.bessel_k(2j, 1.0).real == pytest.approx(K_2I_1, rel=1e-8)
    assert tr.bessel_k(2j, 0.5).real == pytest.approx(K_2I_05, rel=1e-8)


def test_bessel_against_scipy_real_orders():
    rng = np.random.default_rng(3)
    for _ in range(40):
        v = rng.uniform(0, 6)
        x = float(np.exp(rng.uniform(np.log(0.1), np.log(30))))
        assert tr.bessel_k(v, x) == pytest.approx(float(kv(v, x)), rel=1e-9)


def test_bessel_validation():
    with pytest.raises(ValueError):
        tr.bessel_k(0.0, -1.0)
    with pytest.raises(ValueError):
        tr.bessel_k(60.0, 1.0)


def test_bessel_batch_matches_scalar():
    rng = np.random.default_rng(4)
    for order in (0.0, 0.3, 1.7, 1j, 2j):
        z = np.exp(rng.uniform(np.log(0.2), np.log(800), size=30))
        batch = tr.bessel_k_scaled_batch(order, z)
        for zi, bi in zip(z, batch):
            ref = tr.bessel_k_scaled(order, float(zi))
            assert abs(bi - ref) <= 1e-9 * abs(ref)


def test_batch_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    for table, ref in ((tr._GL_NODES, nodes), (tr._GL_WEIGHTS, weights)):
        assert table.dtype == np.float64 and np.array_equal(table, ref)
        assert table.tobytes() == ref.tobytes()     # the signs of zero too
    assert np.array_equal(tr._GL_NODES, -tr._GL_NODES[::-1])
    assert np.array_equal(tr._GL_WEIGHTS, tr._GL_WEIGHTS[::-1])
    assert tr._GL_NODES[7] == 0.0


def test_interpolation_table_audit():
    table = tr.KScaledInterpolator(0.3, 0.5, 900.0)
    z = np.array([0.7, 3.0, 55.0, 420.0])
    for zi in z:
        assert float(table(zi)) == pytest.approx(tr.bessel_k_scaled(0.3, float(zi)), rel=1e-8)
        assert float(table.log_k(zi)) == pytest.approx(np.log(tr.bessel_k_scaled(0.3, float(zi))) - zi, abs=1e-8)


@pytest.mark.parametrize("order, z_lo, z_hi", [(0.3, 4.0, 1024.0), (0.0, 2.0, 256.0),
                                                (1.2, 8.0, 2048.0)])
def test_interpolation_slopes_are_mpmaths_derivative(order, z_lo, z_hi):
    # the slope column is d/dx log(e^z K_nu(z)) at z = e^x, from the
    # recurrence; mpmath differentiates log K_nu itself at 30 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    table = tr.KScaledInterpolator(order, z_lo, z_hi)
    for i in np.linspace(0, len(table._nodes) - 2, 25).round().astype(int):
        z = mpmath.mpf(float(np.exp(table._nodes[i])))
        ref = float(z + z * mpmath.diff(lambda w: mpmath.log(mpmath.besselk(order, w)), z))
        assert abs(table._cells[i, 2] - ref) <= 1e-12 * (1.0 + abs(ref)), (order, i)


@pytest.mark.parametrize("order, z_lo, z_hi", [(0.3, 4.0, 1024.0), (1.2, 8.0, 2048.0)])
def test_interpolation_end_cells_against_mpmath(order, z_lo, z_hi):
    # the first and last three cells at a quarter, half and three quarters
    # of their width, where a spline with end conditions in place of slopes is weakest
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    table = tr.KScaledInterpolator(order, z_lo, z_hi)
    x, last = table._nodes, len(table._nodes) - 2
    for i in (0, 1, 2, last - 2, last - 1, last):
        for tau in (0.25, 0.5, 0.75):
            z = float(np.exp((1.0 - tau) * x[i] + tau * x[i + 1]))
            ref = float(mpmath.log(mpmath.besselk(order, z)))
            assert abs(float(table.log_k(z)) - ref) <= 2e-12, (order, i, tau)


@pytest.mark.usefixtures("fresh_j_caches")
def test_interpolation_audit_catches_a_constant_slope_shift(monkeypatch):
    # equal slope errors at both ends of a cell cancel at its midpoint, so
    # the audit probes a quarter of the way in
    cells = tr._hermite_cells
    monkeypatch.setattr(tr, "_hermite_cells", lambda x, y, s: cells(x, y, s + 1e-5))
    with pytest.raises(RuntimeError, match="self-audit"):
        tr.KScaledInterpolator(0.3, 0.5, 900.0)


def test_interpolation_table_rejects_arguments_outside_it():
    table = tr.KScaledInterpolator(0.3, 0.5, 900.0)
    # both ends are in the table
    assert np.all(np.isfinite(table.log_k(np.array([0.5, 900.0]))))
    for z in (0.5 * (1.0 - 1e-12), 900.0 * (1.0 + 1e-12), np.array([1.0, 901.0]), np.nan):
        with pytest.raises(ValueError, match="outside the table"):
            table(z)
        with pytest.raises(ValueError, match="outside the table"):
            table.log_k(z)


def _log_scaled_by_fancy_index(table, z):
    """The table lookup with a fancy-index row gather and out-of-place
    Horner: the reference for KScaledInterpolator._log_scaled."""
    x = np.log(np.asarray(z, dtype=float))
    cell = np.floor((x - table._nodes[0]) / table._step).astype(np.intp)
    cell = np.maximum(np.minimum(cell, len(table._nodes) - 2), 0)
    t = x - table._nodes[cell]
    c = table._cells[cell]
    return ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]


@pytest.mark.parametrize("order, z_lo, z_hi", [(0.3, 0.5, 900.0), (0.0, 2.0, 1024.0)])
def test_interpolation_lookup_is_the_fancy_index_lookup(order, z_lo, z_hi):
    table = tr.KScaledInterpolator(order, z_lo, z_hi)
    rng = np.random.default_rng(27)
    z = np.exp(rng.uniform(np.log(z_lo), np.log(z_hi), size=7000))
    for q in (z, z.reshape(70, 100), np.array([z_lo, z_hi]), np.exp(table._nodes[:5]),
              np.array(z[0]), float(z[1]), np.empty(0)):
        got = table._log_scaled(q)
        ref = _log_scaled_by_fancy_index(table, q)
        assert np.shape(got) == np.shape(ref) and np.array_equal(got, ref)
        assert np.array_equal(table.log_k(q), ref - np.asarray(q))


@pytest.mark.parametrize("z_lo, z_hi", [(1.0, np.inf), (np.nan, 10.0), (1.0, np.nan),
                                        (0.0, 10.0), (10.0, 1.0)])
def test_interpolation_table_needs_finite_ordered_bounds(z_lo, z_hi):
    with pytest.raises(ValueError, match=r"need finite 0 < z_lo < z_hi, got z_lo=.*, z_hi="):
        tr.KScaledInterpolator(0.3, z_lo, z_hi)


@pytest.mark.usefixtures("fresh_j_caches")
def test_interpolation_audit_covers_the_table_end(monkeypatch):
    # a 1e-6 error in the last table values must trip the self-audit
    batch = tr.bessel_k_scaled_batch

    def perturbed(order, z):
        z = np.atleast_1d(z)
        return batch(order, z) * np.where(z > 880.0, 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(tr, "bessel_k_scaled_batch", perturbed)
    with pytest.raises(RuntimeError, match="self-audit"):
        tr.KScaledInterpolator(0.3, 0.5, 900.0)


@pytest.mark.usefixtures("fresh_j_caches")
def test_interpolation_audit_covers_the_slope_order(monkeypatch):
    # a 1e-6 error in the last order-(nu - 1) values, which enter the
    # slopes alone, must trip the self-audit too
    batch = tr.bessel_k_scaled_batch

    def perturbed(order, z):
        z = np.atleast_1d(z)
        scale = np.where(z > 880.0, 1.0 + 1e-6, 1.0) if order == 0.3 - 1.0 else 1.0
        return batch(order, z) * scale

    monkeypatch.setattr(tr, "bessel_k_scaled_batch", perturbed)
    with pytest.raises(RuntimeError, match="self-audit"):
        tr.KScaledInterpolator(0.3, 0.5, 900.0)


def test_bessel_against_mpmath_grid():
    # mpmath at 30 digits as a third route against the integral form
    # K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt (DLMF 10.32.9) that
    # bessel_k integrates, from small x up to x = 50, where the
    # large-argument expansion (DLMF 10.40.2) governs K
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for nu in (0.0, 0.5, 1.7, 3.3, 1j, 2.5j, 0.5 + 1j):
        for x in (0.1, 0.3, 1.0, 2.5, 5.0, 10.0, 20.0, 35.0, 50.0):
            ref = complex(mpmath.besselk(nu, x))
            assert abs(complex(tr.bessel_k(nu, x)) - ref) <= 1e-8 * abs(ref), (nu, x)
    # exp(pi r/2) K_ir(x) on the steepest-descent path, from small x through
    # the old edge x = pi r/2 to x = 10 r, and next to the saddle's turn at r = x
    points = [(r, x) for r in (2.0, 8.0, 15.0, 25.0, 40.0)
              for x in (0.05, 0.5, 1.0, 3.0, 10.0, 0.999 * 0.5 * np.pi * r, 0.5 * np.pi * r,
                        2.0 * r, 10.0 * r)]
    points += [(x * (1.0 + sign * 10.0 ** -k), x) for x in (2.0, 8.0, 15.0, 25.0, 40.0)
               for k in (2, 8, 12) for sign in (1, -1)]
    for r, x in points:
        ref = float(mpmath.re(mpmath.besselk(1j * r, x) * mpmath.exp(mpmath.pi * r / 2)))
        assert abs(tr.bessel_k_imag_scaled(r, x) - ref) <= 1e-8 * abs(ref), (r, x)


@pytest.mark.parametrize("r, x, value", [(200.0, 300.0, 7.3426678040e-26),
                                         (100.0, 150.0, 1.1073053364e-13),
                                         (60.0, 90.0, 9.2437713201e-09),
                                         (100.0, 300.0, 3.1254683467e-71)])
def test_bessel_imag_scaled_where_the_old_contour_cancelled(r, x, value):
    # r < x < pi r/2: the real-axis leg of the old three-leg contour cancelled
    # against the others here (-6.1e-16 at (200, 300)) or hit its panel cap
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    ref = float(mpmath.re(mpmath.besselk(1j * r, x) * mpmath.exp(mpmath.pi * r / 2)))
    # relative alone: pytest.approx would also admit an absolute 1e-12
    assert abs(ref - value) <= 1e-10 * value
    assert abs(tr.bessel_k_imag_scaled(r, x) - ref) <= 1e-9 * ref


def test_bessel_imag_scaled_reference_and_overlap():
    assert tr.bessel_k_imag_scaled(15.0, 1.0) == pytest.approx(SCALED_R15_X1, rel=1e-8)
    assert tr.bessel_k_imag_scaled(25.0, 1.0) == pytest.approx(SCALED_R25_X1, rel=1e-8)
    assert tr.bessel_k_imag_scaled(40.0, 1.0) == pytest.approx(SCALED_R40_X1, rel=1e-8)
    # the direct route is an independent oracle at every point, x >= pi r/2 included
    for r in (1.0, 3.0, 6.0):
        for x in (0.5, 1.0, 2.5, 10.0):
            direct = float(np.real(tr.bessel_k(complex(0, r), x))) * np.exp(0.5 * np.pi * r)
            assert tr.bessel_k_imag_scaled(r, x) == pytest.approx(direct, rel=1e-7)


def test_bessel_imag_scaled_refuses_an_infinite_order_without_warnings():
    # refused by name before any contour bound is formed from it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r must be finite"):
            tr.bessel_k_imag_scaled(np.inf, 1.0)


@pytest.mark.parametrize("r, x, name", [(np.nan, 1.0, "r"), (-np.inf, 1.0, "r"),
                                        (2.0, np.nan, "x"), (2.0, -np.inf, "x")])
def test_bessel_imag_scaled_names_a_bad_argument(monkeypatch, r, x, name):
    monkeypatch.setattr(tr, "quad_family", lambda *a, **k: pytest.fail("quadrature reached"))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        tr.bessel_k_imag_scaled(r, x)


def test_bessel_imag_scaled_at_infinite_x_is_its_limit():
    assert tr.bessel_k_imag_scaled(2.0, np.inf) == 0.0


def _imag_scaled_per_member(monkeypatch, r, x):
    """exp(pi r/2) K_{ir}(x) with each member of bessel_k_imag_scaled's family
    integrated by its own quad_gk call, and the number of members: the
    reference for the family."""
    sizes = []

    def per_member(f, a, b, **kwargs):
        sizes.append(len(a))
        one = [quad_gk(lambda t: f(t, np.full(t.shape, k)), lo, hi, **kwargs)
               for k, (lo, hi) in enumerate(zip(a, b))]
        return FamilyResult(np.array([q.value for q in one]), np.array([q.error for q in one]),
                            np.array([q.neval for q in one]))

    with monkeypatch.context() as patch:
        patch.setattr(tr, "quad_family", per_member)
        return tr.bessel_k_imag_scaled(r, x), sizes


@pytest.mark.parametrize("r", [5.0, 20.0, 40.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 7.0, 60.0])
def test_imag_scaled_legs_as_one_family_equal_separate_calls(monkeypatch, r, x):
    # H, L and U while H is not negligible, L and U past that, U alone for r <= x
    ref, sizes = _imag_scaled_per_member(monkeypatch, r, x)
    assert sizes == [1 if r <= x else 2 if r == 40.0 else 3]
    assert tr.bessel_k_imag_scaled(r, x) == ref


@pytest.mark.parametrize("r, waves, neval", [(5.0, 1, 252), (40.0, 1, 168), (400.0, 2, 210),
                                             (2000.0, 3, 294)])
def test_imag_scaled_work_is_pinned(monkeypatch, r, waves, neval):
    # one family whose work does not grow with r: the old real-axis leg
    # oscillated r log(r/x)/2 pi times and took 79,716 evaluations at r = 2000
    calls = []

    def counted(f, *args, **kwargs):
        waves = []

        def wave(t, k):
            waves.append(t.size)
            return f(t, k)

        res = quad_family(wave, *args, **kwargs)
        calls.append((len(waves), int(res.neval.sum())))
        return res

    monkeypatch.setattr(tr, "quad_family", counted)
    tr.bessel_k_imag_scaled(r, 1.0)
    assert calls == [(waves, neval)]


@pytest.mark.parametrize("r, x", [(5.0, 1.0), (40.0, 1.0), (2000.0, 1.0), (0.0, 1.0), (5.0, 7.0),
                                  (100.0, 300.0), (1.0 + 1e-8, 1.0), (700.0, 700.0)])
def test_imag_scaled_tail_and_floor_hold(monkeypatch, r, x):
    # the docstring's bounds, checked by quadrature: the family's abs_tol is
    # 1e-2 BESSEL_REL_TOL floor, the path past its end carries at most
    # 1e-3 BESSEL_REL_TOL floor, and floor is at most Re(I_L + I_U)
    seen = []

    def capture(f, a, b, **kwargs):
        res = quad_family(f, a, b, **kwargs)
        seen.append((f, len(a), b[-1], kwargs["abs_tol"], res.value))
        return res

    monkeypatch.setattr(tr, "quad_family", capture)
    tr.bessel_k_imag_scaled(r, x)
    (f, m, end, abs_tol, value), = seen
    floor = abs_tol / (1e-2 * tr.BESSEL_REL_TOL)
    tail = quad_gk(lambda t: f(t, np.full(t.shape, m - 1)), end, end + 5.0).value
    assert abs(tail) <= 1e-3 * tr.BESSEL_REL_TOL * floor
    assert floor <= value[-2:].real.sum()


@pytest.mark.parametrize("r, x", [(1e7, 1.0), (1e300, 1.0), (1.0, 5e-324)])
def test_bessel_imag_scaled_refuses_a_phase_beyond_double_precision(monkeypatch, r, x):
    # |P| = r (log(2r/x) - 1) + O(x^2/r) is far beyond 4e6 at each of these
    monkeypatch.setattr(tr, "quad_family", lambda *a, **k: pytest.fail("quadrature reached"))
    with pytest.raises(ValueError, match="too large against x"):
        tr.bessel_k_imag_scaled(r, x)


@pytest.mark.parametrize("r, x", [(1.0, 1e-300), (0.5, 1e-50), (0.0, 1e-300), (3.0, 1e-20),
                                  (3.0, 1e300), (2.0, 1e5)])
def test_bessel_imag_scaled_at_extreme_x_against_mpmath(r, x):
    # r/x up to 1e300, where D in t - w_s cancels on H (t0 clips it there),
    # and x far past the underflow of e^-m (0.0, like mpmath's value in doubles)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    r_mp, x_mp = mpmath.mpf(r), mpmath.mpf(x)
    ref = float(mpmath.re(mpmath.besselk(1j * r_mp, x_mp) * mpmath.exp(mpmath.pi * r_mp / 2)))
    assert abs(tr.bessel_k_imag_scaled(r, x) - ref) <= 1e-10 * abs(ref)


def test_bessel_k_scaled_array_equals_scalar_calls():
    rng = np.random.default_rng(12)
    x = np.exp(rng.uniform(np.log(0.05), np.log(900.0), size=(2, 5)))
    for order in (0.0, 0.3, 1.7, 1j, 0.5 + 1j):
        got = tr.bessel_k_scaled(order, x)
        assert got.shape == x.shape
        assert got.dtype == (complex if isinstance(order, complex) else float)
        for xi, gi in zip(x.ravel(), got.ravel()):
            one = tr.bessel_k_scaled(order, float(xi))
            assert type(one) is (complex if isinstance(order, complex) else float)
            assert gi == one, (order, xi)
    with pytest.raises(ValueError):
        tr.bessel_k_scaled(0.3, np.array([1.0, 0.0]))


def _scaled_integrand_out_of_place(t, x, nu):
    """The Bessel integrand as one out-of-place expression: the reference
    for transform._scaled_integrand, which evaluates it in one buffer."""
    a, b = nu.real, nu.imag
    expo = x * (1.0 - np.cosh(t)) + a * t
    if b == 0.0:
        return 0.5 * np.exp(expo) * (1.0 + np.exp(-2.0 * a * t))
    return 0.5 * np.exp(expo) * (np.exp(1j * b * t) + np.exp(-2.0 * a * t - 1j * b * t))


def test_exp_in_place_gives_the_bytes_of_np_exp():
    # the entries at or below -_EXP_CUT are set to 0.0, not computed: exp
    # underflows there, which this pins on the platform's numpy
    v = np.concatenate([np.linspace(-800.0, 710.0, 30001), np.linspace(-746.0, -700.0, 4001),
                        [-tr._EXP_CUT, np.nextafter(-tr._EXP_CUT, 0.0), -1e300, -np.inf,
                         np.inf, np.nan, -0.0, 0.0, 1e300]])
    with np.errstate(over="ignore"):
        # numpy's exp may round differently on strided and contiguous
        # arrays, so each layout is compared with np.exp on itself
        for layout in (lambda w: w, lambda w: w[::-3], lambda w: w[:34000].reshape(40, 850),
                       lambda w: w[3:4].reshape(()), lambda w: w[-4:-3].reshape(())):
            a = layout(v.copy())
            ref = np.exp(a)
            got = tr._exp_in_place(a)
            assert got is a and got.shape == ref.shape and got.tobytes() == ref.tobytes()


ORDERS = (0.0, 0.3, 1.7, 2.5, 1j, 2.5j, 0.4 + 1.1j)


@pytest.mark.parametrize("order", ORDERS)
def test_scaled_integrand_is_the_out_of_place_expression(order):
    nu = tr._normalize_order(order)
    rng = np.random.default_rng(25)
    z = np.exp(rng.uniform(np.log(0.05), np.log(900.0), size=40))
    t = np.sort(rng.uniform(0.0, 8.0, size=90))
    k = rng.integers(0, len(z), size=len(t))
    for args in ((t[None, :], z[:, None]),     # the batch rule's (z x t) grid
                 (t, z[k]),                    # the adaptive family's nodes
                 (0.7, 2.0), (np.float64(0.7), np.float64(2.0)), (np.array(3.1), 0.4)):
        got = tr._scaled_integrand(*args, nu)
        ref = _scaled_integrand_out_of_place(*args, nu)
        assert np.shape(got) == np.shape(ref) and np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.array_equal(got, ref), (order, np.shape(ref))


@pytest.mark.parametrize("order", ORDERS)
def test_bessel_paths_equal_the_out_of_place_integrand(order, monkeypatch):
    z = np.exp(np.random.default_rng(26).uniform(np.log(0.05), np.log(900.0), size=60))
    got = (tr.bessel_k_scaled_batch(order, z), tr.bessel_k_scaled(order, z[:12]),
           tr.bessel_k_scaled(order, float(z[0])))
    monkeypatch.setattr(tr, "_scaled_integrand", _scaled_integrand_out_of_place)
    ref = (tr.bessel_k_scaled_batch(order, z), tr.bessel_k_scaled(order, z[:12]),
           tr.bessel_k_scaled(order, float(z[0])))
    for g, r in zip(got, ref):
        assert type(g) is type(r) and np.array_equal(g, r)


def _batch_peak_in_matrices(order, monkeypatch):
    """tracemalloc's peak for the batch rule on 500 arguments, in real
    (z x t) matrices of the grid the rule builds for them."""
    import tracemalloc

    z = np.geomspace(0.5, 900.0, 500)
    shapes = []
    integrand = tr._scaled_integrand

    def spy(t, x, nu):
        shapes.append(np.broadcast_shapes(np.shape(t), np.shape(x)))
        return integrand(t, x, nu)

    monkeypatch.setattr(tr, "_scaled_integrand", spy)
    tr.bessel_k_scaled_batch(order, z)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        tr.bessel_k_scaled_batch(order, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * np.prod(shapes[-1]))


def test_bessel_batch_peaks_near_one_integrand_matrix(monkeypatch):
    """The batch rule holds one (z x t) matrix at a time.  On these 500
    arguments (a 500 x 270 grid) the real-order rule peaks at 1.13 matrices;
    built as one out-of-place expression it peaked at 3.07."""
    for order in (0.0, 0.3, 2.5):
        assert _batch_peak_in_matrices(order, monkeypatch) <= 1.5, order


@pytest.mark.parametrize("order", [1j, 2.5j, 0.4 + 1.1j])
def test_bessel_batch_complex_order_peaks_near_one_complex_matrix(order, monkeypatch):
    """A complex order's integrand is complex, two real matrices: the rule
    peaks at 3.25 real matrices, the real buffer and the complex product.
    Built with two more full-size temporaries it peaked at 4.25."""
    assert _batch_peak_in_matrices(order, monkeypatch) <= 3.5


@pytest.mark.parametrize("z", [[1.0, np.nan], [1.0, np.inf], [1.0, -np.inf], [0.0, 1.0], [-1.0]])
def test_bessel_batch_rejects_nonfinite_or_nonpositive_arguments(z):
    # a NaN once cut the panel ladder short (a wrong value at z = 1) and
    # +inf left it unable to grow (no return)
    with pytest.raises(ValueError, match="finite and positive"):
        tr.bessel_k_scaled_batch(0.3, z)


def test_asymptotic_ratio_behavior():
    # ratio -> 1 monotonically along doubling x, and the first Poincare
    # correction (4 nu^2 - 1)/(8x) is what is left at finite x
    devs = []
    for x in (10.0, 20.0, 40.0, 80.0):
        ratio = tr.bessel_k(0.0, x) / tr.bessel_k_asymptotic(x)
        devs.append(abs(ratio - 1.0))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    ratio50 = tr.bessel_k(0.0, 50.0) / tr.bessel_k_asymptotic(50.0)
    assert 0.99 <= ratio50 <= 1.0
    assert ratio50 == pytest.approx(1.0 - 1.0 / 400.0, abs=5e-5)
    # at x = 1 the leading term is not yet valid
    ratio1 = tr.bessel_k(0.0, 1.0) / tr.bessel_k_asymptotic(1.0)
    assert abs(ratio1 - 1.0) > 0.05
    # two-term check for imaginary order: ratio = 1 + (4 nu^2 - 1)/(8x) + O(x^-2)
    ratio_i = float(np.real(tr.bessel_k(1j, 50.0))) / tr.bessel_k_asymptotic(50.0)
    assert ratio_i == pytest.approx(1.0 - 5.0 / 400.0, abs=3e-4)


def test_bessel_k_at_50_against_mpmath():
    # the two values the c9 large-argument check rests on, pinned to an
    # independent arbitrary-precision evaluation
    mpmath = pytest.importorskip("mpmath")
    for nu in (0.0, 1j):
        ref = complex(mpmath.besselk(nu, 50))
        assert complex(tr.bessel_k(nu, 50.0)) == pytest.approx(ref, rel=1e-10)


def test_gr_3_471_9():
    lhs, rhs, err = tr.gr_identity_3_471_9(0.5, 0.5, 1.0)
    assert err < 1e-8
    assert abs(rhs - 2.0 * K1_1) < 1e-12
    # alpha = beta kills the power prefactor
    _, rhs2, _ = tr.gr_identity_3_471_9(0.8, 0.8, 0.37)
    assert abs(abs(rhs2) - 2.0 * tr.bessel_k(0.37, 1.6)) < 1e-10
    _, _, err = tr.gr_identity_3_471_9(2.0, 1.0, 1j)
    assert err < 1e-8
    with pytest.raises(ValueError):
        tr.gr_identity_3_471_9(-1.0, 1.0, 0.0)


def test_gr_6_726_4():
    _, rhs, err = tr.gr_identity_6_726_4(1.0, 1.0, 0.0, 1.0, -1)
    assert err < 1e-7
    expected = np.sqrt(np.pi / 2.0) * tr.bessel_k(-1.5, 1.0)
    assert abs(rhs - expected) < 1e-12
    _, _, err = tr.gr_identity_6_726_4(1.3, 0.8, 0.7, 0.5, +1)
    assert err < 1e-7
    # even in c
    lhs_p = tr.gr_identity_6_726_4(1.3, 0.8, 0.7, 0.5, +1)[0]
    lhs_m = tr.gr_identity_6_726_4(1.3, 0.8, -0.7, 0.5, +1)[0]
    assert abs(lhs_p - lhs_m) < 1e-12
    with pytest.raises(ValueError):
        tr.gr_identity_6_726_4(0.0, 1.0, 0.0, 1.0, +1)


def test_gr_6_592_12():
    lhs, rhs, err = tr.gr_identity_6_592_12(1.0, 1.0, 0.5)
    assert err < 1e-7
    # the quoted closed form sqrt(2) Gamma(1/2) K_{1/2}(1) = pi/e
    assert rhs == pytest.approx(np.pi / np.e, rel=1e-12)
    # c = 1 drops the endpoint factor: lhs = 2 K_{b-1}(a)/a
    lhs, rhs, err = tr.gr_identity_6_592_12(1.7, 0.4, 1.0)
    assert err < 1e-8
    assert rhs == pytest.approx(2.0 * tr.bessel_k(0.4 - 1.0, 1.7) / 1.7, rel=1e-10)
    # the reduction used for the error-term tail: b = -Re nu, c = 1/2
    lhs, rhs, err = tr.gr_identity_6_592_12(2.0, -0.3, 0.5)
    assert err < 1e-8
    from scipy.special import gamma
    expected = np.sqrt(2.0) * gamma(0.5) * 2.0 ** -0.5 * tr.bessel_k(-0.8, 2.0)
    assert rhs == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("c", [0.05, 0.25, 0.45])
def test_gr_6_592_12_below_half_c(c):
    # tau^(2c-1) is singular at tau = 0 for c < 1/2, and tau itself
    # underflows at the lower cut of the substituted variable
    mpmath = pytest.importorskip("mpmath")
    for a, b in ((0.4, -1.3), (1.3, 0.7), (2.2, 1.6)):
        lhs, rhs, err = tr.gr_identity_6_592_12(a, b, c)
        assert err <= 1e-12, (a, b)
        # a third route: the untransformed tau integral by mpmath, the
        # singular power integrated in closed form near tau = 0
        with mpmath.workdps(20):
            h = lambda tau: (1 + tau ** 2) ** (-b / 2) * mpmath.besselk(b, a * mpmath.sqrt(1 + tau ** 2))
            h0 = h(0)
            ref = (mpmath.quad(lambda tau: 2 * tau ** (2 * c - 1) * (h(tau) - h0), [0, 1]) + h0 / c
                   + mpmath.quad(lambda tau: 2 * tau ** (2 * c - 1) * h(tau), [1, mpmath.inf]))
        assert lhs == pytest.approx(float(ref), rel=1e-12, abs=0.0), (a, b)


@pytest.mark.parametrize("args", [(0.2728, 1.4687, 3.8181, -2.1751, +1),
                                  (1.5923, 3.8467, 5.5456, 1.1560, -1)])
def test_gr_6_726_4_oscillating_draws_fail_loudly(args):
    """c2 draws 6.726.4 with a, b in [0.4, 2.5], c in [0, 2.5] and nu in
    [-1.5, 1.5].  Past it, with c b large, the integral is exponentially
    small against an O(1) oscillating integrand, and a relative tolerance
    may be out of reach: the integral side must then raise at its panel cap,
    never return a value off its closed form."""
    try:
        err = tr.gr_identity_6_726_4(*args)[2]
    except RuntimeError as exc:
        assert "4096 panels cannot hold" in str(exc)
    else:
        assert err <= 1e-7


def test_gr_identities_random_draws():
    rng = np.random.default_rng(77)
    for _ in range(15):
        al, be = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        nu = rng.uniform(-2.5, 2.5) if rng.uniform() < 0.5 else 1j * rng.uniform(0, 2.5)
        assert tr.gr_identity_3_471_9(al, be, nu)[2] < 1e-8
    for _ in range(15):
        a, b = rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5)
        c, nu = rng.uniform(0.0, 2.5), rng.uniform(-1.5, 1.5)
        s = (-1) ** int(rng.integers(2))
        assert tr.gr_identity_6_726_4(a, b, c, nu, s)[2] < 1e-7
    for _ in range(15):
        a, b, c = rng.uniform(0.4, 2.5), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.5)
        assert tr.gr_identity_6_592_12(a, b, c)[2] < 1e-7


def test_transform_closed_example():
    h = tr.selberg_transform_closed(3, 1.0, 0.0)
    assert h == pytest.approx(8.0 * (np.pi / 2.0) * K0_1, rel=1e-10)


def test_transform_symmetry_in_nu():
    for nu in (0.4, 0.9, 1j, 2j):
        a = tr.selberg_transform_closed(3, 1.5, nu)
        b = tr.selberg_transform_closed(3, 1.5, -nu)
        assert abs(a - b) < 1e-12 * abs(a)


def test_transform_quadrature_agreement_sample():
    for d, mu, nu in [(3, 1.0, 0.0), (4, 2.0, 0.5), (3, 2.0, 1j), (5, 0.5, 2j)]:
        hc = tr.selberg_transform_closed(d, mu, nu)
        hq = tr.selberg_transform_quadrature(d, mu, nu)
        assert abs(hc - hq) <= 1e-6 * abs(hc)
    # positivity for real nu
    assert tr.selberg_transform_quadrature(3, 1.0, 0.3) > 0


@pytest.mark.parametrize("call", [
    lambda order: tr.bessel_k(order, 1.3),
    lambda order: tr.selberg_transform_closed(3, 1.3, order),
    lambda order: tr.selberg_transform_quadrature(3, 1.3, order),
], ids=["bessel_k", "closed", "quadrature"])
def test_complex_typed_order_gives_complex_result(call):
    for order in (0.3, 0.0, 1):
        assert isinstance(call(order), float), order
    for order in (0.3 + 0j, complex(0.0), np.complex128(0.3), 1j):
        value = call(order)
        assert isinstance(value, complex) and not isinstance(value, float), order
    # a zero imaginary part changes the type only, not a bit of the value
    for order in (0.3, 0.0):
        assert call(complex(order)).real == call(order)
        assert call(np.complex128(order)).real == call(order)


def test_transform_dimension_guard():
    with pytest.raises(ValueError):
        tr.selberg_transform_quadrature(7, 1.0, 0.0)
    with pytest.raises(ValueError):
        tr.selberg_transform_closed(3, -1.0, 0.0)


@pytest.mark.parametrize("func", [tr.selberg_transform_closed, tr.selberg_transform_quadrature],
                         ids=["closed", "quadrature"])
@pytest.mark.parametrize("mu, nu, name", [
    (np.inf, 0.0, "mu"), (np.nan, 0.0, "mu"), (-np.inf, 0.0, "mu"),
    (1.0, complex(0.0, np.inf), "nu"), (1.0, np.nan, "nu"), (1.0, np.inf, "nu"),
    (1.0, complex(0.3, np.nan), "nu"),
])
def test_transform_refuses_a_non_finite_argument_before_any_work(monkeypatch, func, mu, nu, name):
    for engine in ("quad_family", "quad_gk"):
        monkeypatch.setattr(tr, engine, lambda *a, **k: pytest.fail("quadrature reached"))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        func(3, mu, nu)


def _outer_log_bound(mu, a, X):
    """log of the outer tail bound of selberg_transform_quadrature at X."""
    a = abs(a)
    t = np.arccosh(1.0 + 1.0 / mu)
    return (a * X - mu * (np.cosh(X) - 1.0) + 1.0 + a * t
            - np.log(t * (mu * np.sinh(X) - a)))


def test_outer_cut_tail_below_the_inner_tolerance():
    # the relative tail of |g| = C exp(-mu cosh x + a x) beyond +-X, against
    # its integral 2 K_a(mu) (DLMF 10.32.9), must stay far below the
    # tightest inner target; and X is the smallest cut the bound certifies.
    # Beyond X + 8, mu cosh x > 1e4 on this grid, so that part is negligible
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    # Re nu in {0, +-0.9 rho, +-5} for d = 2..MAX_QUAD_DIM; only a enters
    rhos = [(d - 1) / 2.0 for d in range(2, tr.MAX_QUAD_DIM + 1)]
    for a in sorted({0.0, 5.0, -5.0} | {s * 0.9 * rho for rho in rhos for s in (1, -1)}):
        for mu in (0.01, 0.05, 0.5, 1.0, 5.0, 20.0, 60.0, 200.0):
            X = tr._outer_cut(mu, a)
            tail = mpmath.quad(lambda x: 2 * mpmath.exp(-mu * mpmath.cosh(x))
                               * mpmath.cosh(a * x), [X, X + 1, X + 3, X + 8])
            assert tail / (2 * mpmath.besselk(a, mu)) <= 1e-2 * tr._INNER_TOL_FLOOR, (mu, a)
            # up to the rounding of the log bound, summed in another order here
            assert _outer_log_bound(mu, a, X) <= -tr._OUTER_CUT + 1e-12, (mu, a)
            assert _outer_log_bound(mu, a, X * (1.0 - 1e-6)) > -tr._OUTER_CUT, (mu, a)


def test_outer_cut_matches_a_far_cut():
    # the cut quadrature against the same quadrature cut at a relative tail
    # of exp(-810), beyond exp underflow, on the c1 grid: no closed form involved
    rel_tol = 1e-10
    cases = [(d, mu, nu) for d in (3, 4, 5) for mu in (0.5, 1.0, 2.0, 5.0)
             for nu in (0.0, 0.3, 0.45 * (d - 1), 1j, 2j)]
    cut = [tr.selberg_transform_quadrature(*c, rel_tol=rel_tol) for c in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "_OUTER_CUT", 810.0)
        assert tr._outer_cut(1.0, 0.0) > 7.0
        far = [tr.selberg_transform_quadrature(*c, rel_tol=rel_tol) for c in cases]
    for c, h, f in zip(cases, cut, far):
        assert abs(h - f) <= rel_tol * abs(f), c


def test_transform_quadrature_is_zero_where_exp_minus_mu_underflows():
    # 1 + 1/mu rounds to 1 from mu = 2^53 on, where the cut's t = arccosh(1 + 1/mu)
    # once came out 0 and log(t * slope) raised a bare "math domain error"
    for mu in (1e15, 1e16, 1e17, 1e300):
        for nu in (0.3, 1j):
            assert tr.selberg_transform_quadrature(3, mu, nu) == 0.0, (mu, nu)
            assert tr.selberg_transform_closed(3, mu, nu) == 0.0, (mu, nu)


def test_inner_cut_tail_below_the_inner_tolerance():
    # int_{s > sqrt(L/z)} s^(d-2) e^(-z s^2) ds over the whole integral is
    # Q((d-1)/2, L); it must stay far below the tightest inner target
    mpmath = pytest.importorskip("mpmath")
    for d in range(2, tr.MAX_QUAD_DIM + 1):
        tail = mpmath.gammainc((d - 1) / 2.0, tr._INNER_CUT, mpmath.inf, regularized=True)
        assert tail <= 1e-2 * tr._INNER_TOL_FLOOR, d


def test_inner_cut_matches_the_underflow_range():
    # the cut integral against the same quadrature run out to exp underflow,
    # with no closed form involved
    tol = tr._INNER_TOL_FLOOR
    for d in range(2, tr.MAX_QUAD_DIM + 1):
        for z in (1e-3, 1.0, 1e3):
            f = lambda s, k: s ** (d - 2) * np.exp(-z * s * s)
            cut = quad_family(f, 0.0, np.sqrt(tr._INNER_CUT / z), rel_tol=tol).value[0]
            full = quad_family(f, 0.0, np.sqrt((tr._EXP_CUT + 20.0) / z), rel_tol=tol).value[0]
            assert abs(cut - full) <= tol * abs(full), (d, z)


@pytest.mark.parametrize("d", [2, tr.MAX_QUAD_DIM])
def test_transform_quadrature_at_the_dimension_ends(d):
    rho = (d - 1) / 2.0
    for mu in (0.5, 5.0, 20.0):
        for nu in (0.0, 0.9 * rho, 2j):
            hc = tr.selberg_transform_closed(d, mu, nu)
            hq = tr.selberg_transform_quadrature(d, mu, nu, rel_tol=1e-10)
            assert abs(hc - hq) <= 1e-8 * abs(hc), (mu, nu)


@pytest.mark.parametrize("d, neval, outer_neval", [(3, 7056, 84), (6, 7056, 84)])
def test_transform_inner_work_is_pinned(monkeypatch, d, neval, outer_neval):
    # 1 inner family of 84 members, one per outer node; perfbench's tracer
    # wraps only quad_gk, so this count is the one record of the inner work
    total, outer = [], []

    def counted(*args, **kwargs):
        res = quad_family(*args, **kwargs)
        total.append(int(res.neval.sum()))
        return res

    def counted_outer(*args, **kwargs):
        res = quad_gk(*args, **kwargs)
        outer.append(res.neval)
        return res

    monkeypatch.setattr(tr, "quad_family", counted)
    monkeypatch.setattr(tr, "quad_gk", counted_outer)
    tr.selberg_transform_quadrature(d, 1.0, 0.0, rel_tol=1e-10)
    assert sum(total) == neval
    assert outer == [outer_neval]


def test_quadrature_engine_basics():
    res = quad_gk(lambda x: np.exp(-x * x), -8.0, 8.0)
    assert res.converged
    assert res.value == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    res = quad_gk(lambda x: np.exp(1j * x), 0.0, np.pi)
    assert abs(res.value - 2j) < 1e-12
    with pytest.raises(ValueError):
        quad_gk(lambda x: x, 1.0, 0.0)


def test_quadrature_nonconvergence_raises():
    # a jump off every bisection point cannot meet 1e-9 within 8 panels
    step = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(RuntimeError, match=r"did not converge on \[0\.0, 1\.0\]: 8 panels"):
        quad_gk(step, 0.0, 1.0, max_panels=8)
    assert quad_gk(step, 0.0, 1.0, rel_tol=1e-9).value == pytest.approx(2.0 / 3.0, rel=1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda: tr.KScaledInterpolator(0.3 + 0.5j, 1.0, 2.0), "interpolation table needs a real order"),
    (lambda: tr.gr_identity_6_726_4(1.0, 1.0, 0.5, 0.3, sign=0), "sign must be +1 or -1"),
    (lambda: tr.selberg_transform_closed(2.5, 1.0, 0.3), "d must be an integer, got 2.5"),
    # integral floats once passed, where CycleConfig and the Weyl law refuse them
    (lambda: tr.selberg_transform_closed(3.0, 1.0, 0.3), "d must be an integer, got 3.0"),
    (lambda: tr.selberg_transform_closed(np.float64(3.0), 1.0, 0.3),
     f"d must be an integer, got {np.float64(3.0)!r}"),
], ids=["interpolator-complex-order", "gr_6_726_4-sign-0", "transform-d-2.5", "transform-d-3.0",
        "transform-d-float64"])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
