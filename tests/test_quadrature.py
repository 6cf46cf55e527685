import math
import warnings

import numpy as np
import pytest

from hypcycles import quadrature
from hypcycles import transform as tr
from hypcycles.quadrature import WG, WK, XK, quad_family, quad_gk

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


def test_family_member_nonconvergence_names_its_interval(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    a = np.array([0.0, 0.25, 0.0])
    b = np.array([2.0, 1.5, 1.0])

    def f(x, k):
        # member 1 jumps at 1/3, which no bisection point reaches
        return np.where(k == 1, (x > 1.0 / 3.0).astype(float), np.exp(-x))

    with pytest.raises(RuntimeError, match=r"did not converge on \[0\.25, 1\.5\]: 8 panels"):
        quad_family(f, a, b, rel_tol=1e-9)
    # the well-behaved members converge within the same cap
    good = [0, 2]
    res = quad_family(lambda x, k: f(x, np.asarray(good)[k]), a[good], b[good], rel_tol=1e-9)
    assert res.value == pytest.approx(1.0 - np.exp(-b[good]), rel=1e-9)


def test_nonfinite_integrand_raises():
    # a NaN error estimate is above no budget; it must fail, not loop
    with pytest.raises(RuntimeError, match=r"non-finite"):
        quad_gk(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_family_bounds_validated():
    with pytest.raises(ValueError, match="quad_family needs b > a"):
        quad_family(lambda x, k: x, [0.0, 1.0], [1.0, 1.0])
    # every non-finite pair is refused without a numpy warning, (inf, inf)
    # and (-inf, -inf) included, whose difference b - a is NaN
    for a, b in [(0.0, [1.0, np.inf]), (np.inf, np.inf), (-np.inf, -np.inf), (np.nan, 1.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="quad_family needs finite"):
                quad_family(lambda x, k: x, a, b)
    # a tolerance no comparison can meet is named before any evaluation
    for kwargs, name in [({"rel_tol": np.nan}, "rel_tol"), ({"rel_tol": -1e-9}, "rel_tol"),
                         ({"abs_tol": np.nan}, "abs_tol"), ({"abs_tol": 0.0}, "abs_tol")]:
        with pytest.raises(ValueError, match=f"quad_family needs {name}"):
            quad_gk(lambda x: pytest.fail("evaluated"), 0.0, 1.0, **kwargs)


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


def test_members_start_from_their_quarters(monkeypatch):
    a = np.array([0.0, -1.0, 2.0])
    b = np.array([1.0, 3.0, 2.5])
    calls = []

    def cubic(x, k):
        calls.append((x.copy(), k.copy()))
        return (x - k) ** 3 + 2.0 * x

    res = quad_family(cubic, a, b, rel_tol=1e-12)
    # K21 is exact on a cubic: each member converges on its four quarters
    assert (res.neval == 84).all()
    assert len(calls) == 1
    x, k = calls[0]
    assert x.size == 4 * 21 * a.size
    for j in range(a.size):
        mid = 0.5 * (a[j] + b[j])
        cuts = [a[j], 0.5 * (a[j] + mid), mid, 0.5 * (mid + b[j]), b[j]]
        mine = x[k == j]
        assert not np.isin(mine, cuts).any()
        assert (np.histogram(mine, bins=cuts)[0] == 21).all()

    # the quarters count toward the panel cap: a member that must split fails at once
    calls.clear()
    step = lambda x, k: cubic(x, k) + (x > 1.0 / 3.0)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    with pytest.raises(RuntimeError,
                       match=r"^quad_family did not converge on \[0\.0, 1\.0\]: 4 panels"):
        quad_family(step, a, b, rel_tol=1e-12)
    assert len(calls) == 1


# sin(200x) e^(-0.1x) on [0, 10] at rel_tol 1e-9 converges on exactly 256 panels
def _chirp(x):
    return np.sin(200.0 * x) * np.exp(-0.1 * x)


@pytest.mark.parametrize("max_panels", [256, 257, 1012, 1013, 2048, 4096])
def test_a_cap_the_member_fits_in_gives_the_uncapped_value(monkeypatch, max_panels):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1 << 20)
    uncapped = quad_gk(_chirp, 0.0, 10.0, rel_tol=1e-9)
    assert uncapped.neval == 21 * (2 * 256 - 4)
    monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    got = quad_gk(_chirp, 0.0, 10.0, rel_tol=1e-9)
    assert (got.value, got.error, got.neval) == (uncapped.value, uncapped.error, uncapped.neval)


def test_a_cap_the_member_does_not_fit_in_raises(monkeypatch):
    # no rationing of splits near the cap: a converged value never depends on it
    monkeypatch.setattr(quadrature, "MAX_PANELS", 255)
    with pytest.raises(RuntimeError,
                       match=r"did not converge on \[0\.0, 10\.0\]: 255 panels cannot hold"):
        quad_gk(_chirp, 0.0, 10.0, rel_tol=1e-9)


def _halves_start(f, a, b, rel_tol):
    """One member refined from its two halves, the start before the quarters:
    value, error, evaluations and every node evaluated, in order."""
    nodes = []

    def g(x, k):
        nodes.append(x.copy())
        return f(x)

    mid = 0.5 * (a + b)
    lo, hi = np.array([a, mid]), np.array([mid, b])
    vals, errs = quadrature._eval_panels(g, lo, hi, np.zeros(2, dtype=int))
    while True:
        owner = np.zeros(lo.size, dtype=int)
        total = quadrature._member_sum(vals, owner, 1)[0]
        err_total = np.bincount(owner, weights=errs)[0]
        target = max(rel_tol * abs(total), 1e-300)
        if err_total <= target:
            return total, err_total, 2 * XK.size * (lo.size - 1), np.concatenate(nodes)
        split = errs > target / (2.0 * lo.size)
        new_lo, new_hi, new_owner = quadrature._bisect(lo[split], hi[split], owner[split])
        new_vals, new_errs = quadrature._eval_panels(g, new_lo, new_hi, new_owner)
        whole = ~split
        lo, hi = np.concatenate([lo[whole], new_lo]), np.concatenate([hi[whole], new_hi])
        vals = np.concatenate([vals[whole], new_vals])
        errs = np.concatenate([errs[whole], new_errs])


def _both_starts(f, a, b, rel_tol):
    nodes = []

    def g(x):
        nodes.append(x.copy())
        return f(x)

    return quad_gk(g, a, b, rel_tol=rel_tol), np.concatenate(nodes), _halves_start(f, a, b, rel_tol)


def _radial(d, z):
    return lambda s: s ** (d - 2) * np.exp(-z * s * s), 0.0, math.sqrt(40.0 / z), 1e-12


# members whose two halves both split: the quarters start is their second wave
BOTH_HALVES_SPLIT = {
    "chirp": (_chirp, 0.0, 10.0, 1e-9),
    **{f"radial-d{d}": _radial(d, 1.0) for d in range(3, 7)},
    "gaussian": (lambda x: np.exp(-x * x), -8.0, 8.0, 1e-9),
}


@pytest.mark.parametrize("name", sorted(BOTH_HALVES_SPLIT))
def test_quarters_start_keeps_the_halves_start_tree(name):
    res, nodes, (value, error, neval, ref_nodes) = _both_starts(*BOTH_HALVES_SPLIT[name])
    assert (res.value, res.error, res.neval + 42) == (value, error, neval)
    # the same panels, evaluated in the same order, less the halves
    assert np.array_equal(nodes, ref_nodes[42:])


def test_quarters_start_where_a_half_converged_unsplit():
    # exp(1) K_2.5(1): one half of [0, T] converged unsplit from the halves
    nu = tr._normalize_order(2.5)
    f = lambda t: tr._scaled_integrand(t, 1.0, nu)
    res, nodes, (value, error, neval, ref_nodes) = _both_starts(
        f, 0.0, tr._cosh_cutoff(1.0, nu.real), tr.BESSEL_REL_TOL)
    assert res.neval != neval - 42 and not np.array_equal(nodes, ref_nodes[42:])
    assert (res.value, res.error) != (value, error)
    assert abs(res.value - value) <= min(res.error, error)


def test_rule_constants_are_the_gauss_kronrod_pair():
    # independent of the typed digits: the Gauss half against numpy's
    # Gauss-Legendre rule, the Kronrod half by its degree of exactness
    x_gauss, w_gauss = np.polynomial.legendre.leggauss(10)
    assert XK.size == WK.size == WG.size == 21
    assert np.all(np.diff(XK) > 0) and XK[10] == 0.0
    assert np.abs(XK[1::2] - x_gauss).max() <= 1e-15
    assert np.abs(WG[1::2] - w_gauss).max() <= 1e-15
    assert not WG[0::2].any()
    assert WK.sum() == pytest.approx(2.0, abs=1e-15)

    def error(w, k):
        return abs(w @ XK ** k - (2.0 / (k + 1) if k % 2 == 0 else 0.0))

    # K21 is exact to degree 31 (3n + 1 for n = 10), G10 to degree 19
    assert max(error(WK, k) for k in range(32)) <= 1e-15
    assert error(WK, 32) > 1e-13
    assert max(error(WG, k) for k in range(20)) <= 1e-15
    assert error(WG, 20) > 1e-13


def _cplx_exact(w, lo, hi):
    return (np.exp(1j * w * hi) - np.exp(1j * w * lo)) / (1j * w)


# integrands with known integrals: smooth, a near-pole, an endpoint
# singularity of the derivative, a fast oscillation, a complex oscillation
KNOWN = {
    "gaussian": (lambda x: np.exp(-x * x), 0.0, 2.0, 0.5 * math.sqrt(math.pi) * math.erf(2.0)),
    "near-pole": (lambda x: 1.0 / (x * x + 1e-4), -1.0, 1.0, 200.0 * math.atan(100.0)),
    "sqrt": (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
    "chirp": (_chirp, 0.0, 10.0, _cplx_exact(200.0 + 0.1j, 0.0, 10.0).imag),
    "complex": (lambda x: np.exp(30j * x), 0.0, 1.0, _cplx_exact(30.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("name", sorted(KNOWN))
def test_reported_error_bounds_the_true_error(name, rel_tol):
    f, lo, hi, exact = KNOWN[name]
    res = quad_gk(f, lo, hi, rel_tol=rel_tol)
    assert res.error <= rel_tol * abs(res.value)
    assert abs(res.value - exact) <= max(res.error, 10.0 * np.finfo(float).eps * abs(exact))
