import math

import numpy as np
import pytest

from hypcycles.quadrature import quad_family, quad_gk

# inner Gaussian integrals of the transform, s^p exp(-z s^2) on [0, S(z)],
# with widely different scales
Z = np.array([1e-3, 0.07, 1.0, 13.0, 480.0])
S_HI = np.sqrt(790.0 / Z)
POWER = 2


def _gauss(s, z):
    return s ** POWER * np.exp(-z * s * s)


def test_family_members_match_scalar_quadrature():
    res = quad_family(lambda s, k: _gauss(s, Z[k]), 0.0, S_HI, rel_tol=1e-12)
    assert res.value.shape == res.error.shape == res.neval.shape == Z.shape
    for k, z in enumerate(Z):
        alone = quad_gk(lambda s: _gauss(s, z), 0.0, S_HI[k], rel_tol=1e-12)
        assert abs(res.value[k] - alone.value) <= 1e-14 * abs(alone.value)
        assert res.neval[k] == alone.neval
        # and the quadrature meets the Gamma closed form
        exact = 0.5 * math.gamma(1.5) * z ** -1.5
        assert res.value[k] == pytest.approx(exact, rel=1e-11)


def test_family_of_complex_members():
    omega = np.array([0.5, 3.0, 20.5])
    res = quad_family(lambda x, k: np.exp(1j * omega[k] * x), np.zeros(3), np.pi,
                      rel_tol=1e-11)
    for k, w in enumerate(omega):
        alone = quad_gk(lambda x: np.exp(1j * w * x), 0.0, np.pi, rel_tol=1e-11)
        assert abs(res.value[k] - alone.value) <= 1e-14 * abs(alone.value)
        assert abs(res.value[k] - (np.exp(1j * w * np.pi) - 1.0) / (1j * w)) < 1e-11


def test_family_of_one_is_quad_gk():
    f = lambda x: np.exp(-x) * np.cos(7.0 * x)
    res = quad_family(lambda x, k: f(x), 0.0, 9.0, rel_tol=1e-10, abs_tol=1e-30)
    alone = quad_gk(f, 0.0, 9.0, rel_tol=1e-10, abs_tol=1e-30)
    assert res.value[0] == alone.value
    assert res.error[0] == alone.error
    assert res.neval[0] == alone.neval


def test_family_member_nonconvergence_names_its_interval():
    a = np.array([0.0, 0.25, 0.0])
    b = np.array([2.0, 1.5, 1.0])

    def f(x, k):
        # member 1 jumps at 1/3, which no bisection point reaches
        return np.where(k == 1, (x > 1.0 / 3.0).astype(float), np.exp(-x))

    with pytest.raises(RuntimeError, match=r"did not converge on \[0\.25, 1\.5\]: 8 panels"):
        quad_family(f, a, b, rel_tol=1e-9, max_panels=8)
    # the well-behaved members converge within the same cap
    good = [0, 2]
    res = quad_family(lambda x, k: f(x, np.asarray(good)[k]), a[good], b[good],
                      rel_tol=1e-9, max_panels=8)
    assert res.value == pytest.approx(1.0 - np.exp(-b[good]), rel=1e-9)


def test_nonfinite_integrand_raises():
    # a NaN error estimate is above no budget; it must fail, not loop
    with pytest.raises(RuntimeError, match=r"non-finite"):
        quad_gk(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_family_bounds_validated():
    with pytest.raises(ValueError):
        quad_family(lambda x, k: x, [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        quad_family(lambda x, k: x, 0.0, [1.0, np.inf])
