import re

import numpy as np
import pytest
from scipy.linalg import expm

from hypcycles import lorentz as lz


def test_boost_trivial_and_entry():
    assert np.allclose(lz.make_boost(0.0, 3), np.eye(4))
    g = lz.make_boost(1.0, 3)
    assert g[0, 0] == pytest.approx(np.cosh(1.0), abs=1e-15)
    assert g[0, 1] == pytest.approx(np.sinh(1.0), abs=1e-15)


def test_boost_matches_matrix_exponential():
    # oracle: scaling-and-squaring Pade expm of x*E, E = E_12 + E_21
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        x = rng.uniform(-3, 3)
        E = np.zeros((d + 1, d + 1))
        E[0, 1] = E[1, 0] = 1.0
        assert np.max(np.abs(lz.make_boost(x, d) - expm(x * E))) < 1e-12


def test_boost_one_parameter_group():
    a = lz.make_boost(0.7, 4) @ lz.make_boost(-1.9, 4)
    assert np.max(np.abs(a - lz.make_boost(-1.2, 4))) < 1e-14


def test_unipotent_entries_and_identity():
    assert np.allclose(lz.make_unipotent([0.0, 0.0]), np.eye(4))
    g = lz.make_unipotent([1.0, 0.0])
    assert g[0, 0] == pytest.approx(1.5)
    assert g[0, 1] == pytest.approx(-0.5)
    assert g[0, 2] == pytest.approx(1.0)


def test_unipotent_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        u = rng.uniform(-2, 2, d - 1)
        v = rng.uniform(-2, 2, d - 1)
        lhs = lz.make_unipotent(u) @ lz.make_unipotent(v)
        assert np.max(np.abs(lhs - lz.make_unipotent(u + v))) < 1e-12


def test_constructors_satisfy_group_invariant():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        g = lz.random_lorentz(rng, d, n_factors=4)
        assert lz.group_residual(g) < 1e-10
        assert lz.is_lorentz(g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_matrix_with_a_non_finite_entry_is_not_lorentz(bad):
    # its residual and determinant are NaN, which no tolerance can meet
    g = lz.make_boost(0.5, 3)
    g[1, 2] = bad
    with np.errstate(invalid="ignore"):
        assert not lz.is_lorentz(g)
        assert not lz.lorentz_mask(np.stack([lz.make_boost(0.5, 3), g])).tolist()[1]
        with pytest.raises(ValueError, match="not in the identity component"):
            lz.require_lorentz(g)


def test_membership_boost_and_blocks():
    cfg = lz.CycleConfig(3, 2)
    for x in (1.0, -0.7):
        assert lz.check_membership(lz.make_boost(x, 3), "A")
    assert lz.check_membership(lz.make_unipotent([1.0, 0.0]), "G0", cfg)
    assert not lz.check_membership(lz.make_unipotent([0.0, 1.0]), "G0", cfg)
    assert lz.check_membership(lz.make_unipotent([0.5, 0.0]), "N")
    assert not lz.check_membership(lz.make_boost(0.5, 3), "K")
    k = lz.embed_rotation(lz.random_rotation(np.random.default_rng(0), 3))
    assert lz.check_membership(k, "K")
    m = lz.embed_m_rotation(lz.random_rotation(np.random.default_rng(1), 2))
    assert lz.check_membership(m, "M")
    assert lz.check_membership(m, "K")


def test_membership_an0():
    cfg = lz.CycleConfig(3, 2)
    g = lz.make_unipotent([0.8, 0.0]) @ lz.make_scale(2.0, 3)
    assert lz.check_membership(g, "AN0", cfg)
    g = lz.make_unipotent([0.0, 0.8]) @ lz.make_scale(2.0, 3)
    assert not lz.check_membership(g, "AN0", cfg)


def test_commutation_identities():
    ok = lz.commutation_identities(2.0, np.array([1.0, 0.0]))
    assert ok == (True, True, True)
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(3, 6))
        r = float(np.exp(rng.uniform(-1.5, 1.5)))
        u = rng.uniform(-2, 2, d - 1)
        k = lz.random_rotation(rng, d - 1)
        assert all(lz.commutation_identities(r, u, k))


def test_commutation_scale_identity_example():
    # a_2 n_(1,0) = n_(2,0) a_2
    a2 = lz.make_scale(2.0, 3)
    lhs = a2 @ lz.make_unipotent([1.0, 0.0])
    rhs = lz.make_unipotent([2.0, 0.0]) @ a2
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_spin_cover_basics():
    eye = lz.spin_cover_so13(np.eye(2, dtype=complex))
    assert np.max(np.abs(eye - np.eye(4))) < 1e-14
    b = lz.spin_cover_so13(np.diag([np.exp(0.5), np.exp(-0.5)]).astype(complex))
    assert b[0, 0] == pytest.approx(np.cosh(1.0), abs=1e-12)
    assert np.max(np.abs(b - lz.make_boost(1.0, 3))) < 1e-12
    m = np.array([[1, 2 + 1j], [0, 1]], dtype=complex)
    assert np.max(np.abs(lz.spin_cover_so13(m) - lz.spin_cover_so13(-m))) < 1e-14


def test_spin_cover_rejects_bad_determinant():
    with pytest.raises(ValueError):
        lz.spin_cover_so13(np.diag([2.0, 1.0]).astype(complex))


def test_spin_cover_homomorphism():
    rng = np.random.default_rng(23)
    for _ in range(60):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        a = a / np.sqrt(det)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        b = b / np.sqrt(det)
        lhs = lz.spin_cover_so13(a @ b)
        rhs = lz.spin_cover_so13(a) @ lz.spin_cover_so13(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cycle_config_validation():
    cfg = lz.CycleConfig(5, 3)
    assert cfg.rho == 2.0 and cfg.rho0 == 1.0
    with pytest.raises(ValueError):
        lz.CycleConfig(3, 3)
    with pytest.raises(ValueError):
        lz.CycleConfig(2, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: lz.make_boost(0.5, 1), "need d >= 2"),
    (lambda: lz.make_unipotent([0.5], 4), "u must have d-1 components"),
    (lambda: lz.CycleConfig(3.5, 2), "d and n must be integers"),
    (lambda: lz.CycleConfig(3, 2.5), "d and n must be integers"),
    (lambda: lz.check_membership(np.eye(4), "G0"), "G0 membership needs a CycleConfig"),
    (lambda: lz.check_membership(np.eye(4), "AN0"), "AN0 membership needs a CycleConfig"),
    (lambda: lz.check_membership(np.eye(4), "X"), "unknown subgroup 'X'"),
    # the arguments are checked before the matrix: a non-group matrix once gave False
    (lambda: lz.check_membership(np.zeros((4, 4)), "Z"), "unknown subgroup 'Z'"),
    (lambda: lz.check_membership(np.zeros((4, 4)), "G0", None),
     "G0 membership needs a CycleConfig"),
    (lambda: lz.check_membership(np.zeros((4, 4)), "AN0"), "AN0 membership needs a CycleConfig"),
    (lambda: lz.spin_cover_so13(np.eye(3)), "expected a 2x2 complex matrix"),
], ids=["boost-d-1", "unipotent-length", "config-d-3.5", "config-n-2.5", "G0-no-config",
        "AN0-no-config", "unknown-subgroup", "unknown-subgroup-non-group",
        "G0-no-config-non-group", "AN0-no-config-non-group", "spin-cover-3x3"])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
