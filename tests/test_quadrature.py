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
    with pytest.raises(ValueError, match="quad_family needs b > a"):
        quad_family(lambda x, k: x, [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="quad_family needs finite"):
        quad_family(lambda x, k: x, 0.0, [1.0, np.inf])
    with pytest.raises(ValueError, match="quad_family needs max_panels >= 2"):
        quad_family(lambda x, k: x, 0.0, 1.0, max_panels=1)


# real members of very different difficulty, and complex oscillating ones
_REAL_SCALE = np.array([0.3, 2.0, 17.0, 90.0, 1e-3, 6.5, 41.0])
_CPLX_FREQ = np.array([0.5, 3.0, 20.5, 77.0, 1.25, 9.0])
MEMBERS = {
    "real": (lambda x, c: np.exp(-c * x) * np.cos(3.0 * x) / (1.0 + x * x),
             _REAL_SCALE, 0.05 * np.arange(_REAL_SCALE.size), 4.0 + _REAL_SCALE ** 0.25),
    "complex": (lambda x, c: np.exp(1j * c * x) * (1.0 + x),
                _CPLX_FREQ, -0.1 * np.arange(_CPLX_FREQ.size), np.full(_CPLX_FREQ.size, np.pi)),
}


@pytest.mark.parametrize("kind", sorted(MEMBERS))
def test_member_is_the_same_in_any_family(kind):
    g, c, a, b = MEMBERS[kind]

    def run(sel):
        sel = np.asarray(sel)
        return quad_family(lambda x, k: g(x, c[sel][k]), a[sel], b[sel], rel_tol=1e-11)

    m = c.size
    alone = [run([j]) for j in range(m)]
    rng = np.random.default_rng(7)
    families = [np.arange(m), np.arange(m)[::-1], rng.permutation(m), [1, 4], [5, 0, 3]]
    families += [np.concatenate([np.arange(m)] * 3)]     # every member three times
    for sel in families:
        res = run(sel)
        for i, j in enumerate(sel):
            assert res.value[i] == alone[j].value[0]
            assert res.error[i] == alone[j].error[0]
            assert res.neval[i] == alone[j].neval[0]


def test_members_start_from_their_halves():
    a = np.array([0.0, -1.0, 2.0])
    b = np.array([1.0, 3.0, 2.5])
    calls = []

    def cubic(x, k):
        calls.append((x.copy(), k.copy()))
        return (x - k) ** 3 + 2.0 * x

    res = quad_family(cubic, a, b, rel_tol=1e-12)
    # K15 is exact on a cubic: each member converges on its two halves
    assert (res.neval == 30).all()
    assert len(calls) == 1
    x, k = calls[0]
    assert x.size == 2 * 15 * a.size
    for j in range(a.size):
        mid = 0.5 * (a[j] + b[j])
        mine = x[k == j]
        assert (np.count_nonzero(mine < mid), np.count_nonzero(mine > mid)) == (15, 15)
        assert ((mine > a[j]) & (mine < b[j])).all()

    # the halves count toward the panel cap: a member that must split fails at once
    calls.clear()
    step = lambda x, k: cubic(x, k) + (x > 1.0 / 3.0)
    with pytest.raises(RuntimeError,
                       match=r"^quad_family did not converge on \[0\.0, 1\.0\]: 2 panels"):
        quad_family(step, a, b, rel_tol=1e-12, max_panels=2)
    assert len(calls) == 1


# sin(200x) e^(-0.1x) on [0, 10] at rel_tol 1e-9 converges on exactly 1,012 panels
def _chirp(x):
    return np.sin(200.0 * x) * np.exp(-0.1 * x)


@pytest.mark.parametrize("max_panels", [1012, 1013, 2048, 4096])
def test_a_cap_the_member_fits_in_gives_the_uncapped_value(max_panels):
    uncapped = quad_gk(_chirp, 0.0, 10.0, rel_tol=1e-9, max_panels=1 << 20)
    assert uncapped.neval == 30 * (1012 - 1)
    got = quad_gk(_chirp, 0.0, 10.0, rel_tol=1e-9, max_panels=max_panels)
    assert (got.value, got.error, got.neval) == (uncapped.value, uncapped.error, uncapped.neval)


def test_a_cap_the_member_does_not_fit_in_raises():
    # no rationing of splits near the cap: a converged value never depends on it
    with pytest.raises(RuntimeError,
                       match=r"did not converge on \[0\.0, 10\.0\]: 1011 panels cannot hold"):
        quad_gk(_chirp, 0.0, 10.0, rel_tol=1e-9, max_panels=1011)
