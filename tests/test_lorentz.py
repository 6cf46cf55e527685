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
        assert lz.check_membership(g, "G")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_matrix_with_a_non_finite_entry_is_not_lorentz(bad):
    # its residual and determinant are NaN, which no tolerance can meet
    g = lz.make_boost(0.5, 3)
    g[1, 2] = bad
    with np.errstate(invalid="ignore"):
        assert not lz.check_membership(g, "G")
        assert not lz.check_membership(np.stack([lz.make_boost(0.5, 3), g]), "G").tolist()[1]
        with pytest.raises(ValueError, match="not in the identity component"):
            lz.require_lorentz(g)


@pytest.mark.parametrize("g", [np.eye(4)[:3], np.eye(2)], ids=["non-square", "d=1"])
def test_one_matrix_of_no_groups_shape_is_in_no_subgroup(g):
    cfg = lz.CycleConfig(3, 2)
    for subgroup in ("G", "K", "A", "N", "M", "G0", "AN0"):
        assert lz.check_membership(g, subgroup, cfg) is False


@pytest.mark.parametrize("g, shape", [
    (np.eye(4)[:3], "(3, 4)"), (np.zeros((2, 4, 3)), "(2, 4, 3)"), (np.eye(2), "(2, 2)"),
    (np.zeros(0), "(0,)"),
], ids=["non-square", "non-square-stack", "d=1", "empty-list"])
def test_require_lorentz_refuses_a_shape_by_name(g, shape):
    # once numpy's matmul mismatch, and for d = 1 the residual of a group element
    with pytest.raises(ValueError, match=f"^generator 'T' must be a .* got shape {re.escape(shape)}$"):
        lz.require_lorentz(g, what="generator 'T'")
    # the other calls that read a matrix's shape, once with numpy's own errors; one
    # matrix of no group's shape is in no subgroup, a stack of them is refused
    calls = [lz.group_residual, lz.lorentz_inverse]
    if np.ndim(g) != 2:
        calls += [lambda g: lz.check_membership(g, "G"),
                  lambda g: lz.check_membership(g, "G0", lz.CycleConfig(3, 2))]
    for call in calls:
        with pytest.raises(ValueError, match=f"^matrix must be a .* got shape {re.escape(shape)}$"):
            call(g)


def test_require_lorentz_refuses_a_stack_at_its_first_member_outside():
    good, bad, worse = lz.make_boost(0.5, 3), np.diag([2.0, 1.0, 1.0, 1.0]), -np.eye(4)
    with pytest.raises(ValueError) as one:
        lz.require_lorentz(bad, what="member")
    with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
        lz.require_lorentz(np.stack([good, bad, worse]), what="member")
    stack = np.stack([good, good.T])
    assert lz.require_lorentz(stack).tobytes() == stack.tobytes()
    # the one place that decides an empty stack: it passes
    assert lz.require_lorentz(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_membership_boost_and_blocks():
    assert lz.check_membership(lz.make_boost(0.5, 3), "G")
    assert not lz.check_membership(np.diag([2.0, 1.0, 1.0, 1.0]), "G")
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


def _membership_by_hand(g, subgroup, cfg, tol):
    """K, M and AN0 membership as three separate formulas: the e0 row and
    column for K, the 2x2 block and its coupling for M, and for AN0 the NA
    part read off g's first column, then the compact factor left over."""
    if not lz.check_membership(g, "G", tol=tol):
        return False
    d = g.shape[0] - 1
    if subgroup == "K":
        e0 = np.eye(d + 1)[0]
        return max(np.abs(g[0] - e0).max(), np.abs(g[:, 0] - e0).max()) <= tol
    if subgroup == "M":
        return (np.abs(g[:2, :2] - np.eye(2)).max() <= tol
                and max(np.abs(g[:2, 2:]).max(), np.abs(g[2:, :2]).max()) <= tol)
    p = g[:, 0]
    s = 1.0 / (p[0] - p[1])
    w = p[2:] * s
    if np.abs(w[cfg.n - 1:]).max() > tol:
        return False
    k = lz.make_boost(-np.log(s), d) @ lz.make_unipotent(-w, d) @ g
    return np.abs(k - np.eye(d + 1)).max() <= max(tol, 1e2 * lz.TOL_GROUP)


def test_k_m_and_an0_membership_equal_their_separate_formulas():
    # members of K, M and AN0 and generic elements, each as drawn, moved by
    # 1e-12 to 1e-7 inside the group, or moved entrywise by as much
    rng = np.random.default_rng(39)
    outcomes = {"K": [], "M": [], "AN0": []}
    for d, n in ((3, 2), (4, 2), (4, 3), (5, 3)):
        cfg = lz.CycleConfig(d, n)
        for _ in range(20):
            u = np.zeros(d - 1)
            u[:n - 1] = rng.uniform(-1, 1, n - 1)
            bases = (lz.embed_rotation(lz.random_rotation(rng, d)),
                     lz.embed_m_rotation(lz.random_rotation(rng, d - 1)),
                     lz.make_scale(np.exp(rng.uniform(-1, 1)), d) @ lz.make_unipotent(u, d),
                     lz.random_lorentz(rng, d))
            for g in bases:
                eps = 10.0 ** rng.uniform(-12, -7)
                near = (lz.make_unipotent(eps * rng.standard_normal(d - 1), d)
                        @ lz.make_boost(eps * rng.standard_normal(), d))
                for h in (g, g @ near, g + eps * rng.standard_normal(g.shape)):
                    for subgroup, tols in (("K", (1e-10, 1e-9, 1e-8)), ("M", (1e-10, 1e-9, 1e-8)),
                                           ("AN0", (1e-10, 1e-9, 1e-8, 1e-7))):
                        for tol in tols:
                            got = bool(lz.check_membership(h, subgroup, cfg, tol))
                            assert got == _membership_by_hand(h, subgroup, cfg, tol)
                            outcomes[subgroup].append(got)
    for subgroup, got in outcomes.items():      # both outcomes are met, many times
        assert 500 < sum(got) < len(got) - 500, subgroup


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


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def test_membership_of_a_stack_is_the_loop_over_it():
    # the draws of test_k_m_and_an0_membership_equal_their_separate_formulas, with
    # members of A, N and G0 among the bases, a NaN entry, and a stack of another
    # dimension than the CycleConfig's
    rng = np.random.default_rng(39)
    outcomes = {}
    for d, n in ((3, 2), (4, 2), (4, 3), (5, 3)):
        cfg = lz.CycleConfig(d, n)
        stack = []
        for _ in range(5):
            u = np.zeros(d - 1)
            u[:n - 1] = rng.uniform(-1, 1, n - 1)
            k0 = np.eye(d)
            k0[:n, :n] = lz.random_rotation(rng, n)
            bases = (lz.embed_rotation(lz.random_rotation(rng, d)),
                     lz.embed_m_rotation(lz.random_rotation(rng, d - 1)),
                     lz.make_scale(np.exp(rng.uniform(-1, 1)), d) @ lz.make_unipotent(u, d),
                     lz.random_lorentz(rng, d), lz.make_boost(rng.uniform(-2, 2), d),
                     lz.make_unipotent(rng.uniform(-1, 1, d - 1), d),
                     lz.make_unipotent(u, d) @ lz.embed_rotation(k0))
            for g in bases:
                eps = 10.0 ** rng.uniform(-12, -7)
                near = (lz.make_unipotent(eps * rng.standard_normal(d - 1), d)
                        @ lz.make_boost(eps * rng.standard_normal(), d))
                stack += [g, g @ near, g + eps * rng.standard_normal(g.shape)]
        stack[1] = stack[1].copy()
        stack[1][1, 2] = np.nan
        stack = np.stack(stack)
        other = lz.CycleConfig(d + 1, n)
        for subgroup in ("G", "K", "A", "N", "M", "G0", "AN0"):
            for tol in (1e-10, 1e-9, 1e-8, 1e-7):
                with np.errstate(invalid="ignore"):
                    loop = [lz.check_membership(g, subgroup, cfg, tol) for g in stack]
                    got = lz.check_membership(stack, subgroup, cfg, tol)
                assert all(type(b) is bool for b in loop)
                assert got.dtype == bool and got.tolist() == loop, (d, n, subgroup, tol)
                outcomes.setdefault(subgroup, []).extend(loop)
                if subgroup not in ("G0", "AN0"):
                    continue
                # a group element of another dimension: the loop's first refusal
                want = _outcome(lambda: [lz.check_membership(g, subgroup, other, tol)
                                         for g in stack])
                assert _outcome(lambda: lz.check_membership(stack, subgroup, other, tol)
                                .tolist()) == want
        assert lz.check_membership(stack[:0], "G0", cfg).shape == (0,)
    for subgroup, got in outcomes.items():      # both outcomes are met, many times
        assert 50 < sum(got) < len(got) - 50, subgroup
    assert lz.check_membership(np.eye(4)[:3], "K") is False


def test_cycle_config_validation():
    cfg = lz.CycleConfig(5, 3)
    assert cfg.rho == 2.0 and cfg.rho0 == 1.0
    with pytest.raises(ValueError):
        lz.CycleConfig(3, 3)
    with pytest.raises(ValueError):
        lz.CycleConfig(2, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: lz.make_boost(0.5, 1), "d must be an integer >= 2, got 1"),
    (lambda: lz.make_boost(0.5, 2.5), "d must be an integer, got 2.5"),  # once a TypeError from _eyes
    (lambda: lz.make_unipotent([0.5], 4), "u must have d-1 components"),
    (lambda: lz.CycleConfig(3.5, 2), "d must be an integer, got 3.5"),
    (lambda: lz.CycleConfig(3, 2.5), "n must be an integer, got 2.5"),
    # integral floats and bools once passed, to fail far from here
    (lambda: lz.CycleConfig(4.0, 2), "d must be an integer, got 4.0"),
    (lambda: lz.CycleConfig(4, 2.0), "n must be an integer, got 2.0"),
    (lambda: lz.CycleConfig(True, 2), "d must be an integer, got True"),
    (lambda: lz.check_membership(np.eye(4), "G0"), "G0 membership needs a CycleConfig"),
    (lambda: lz.check_membership(np.eye(4), "AN0"), "AN0 membership needs a CycleConfig"),
    (lambda: lz.check_membership(np.eye(4), "X"), "unknown subgroup 'X'"),
    # the arguments are checked before the matrix: a non-group matrix once gave False
    (lambda: lz.check_membership(np.zeros((4, 4)), "Z"), "unknown subgroup 'Z'"),
    (lambda: lz.check_membership(np.zeros((4, 4)), "G0", None),
     "G0 membership needs a CycleConfig"),
    (lambda: lz.check_membership(np.zeros((4, 4)), "AN0"), "AN0 membership needs a CycleConfig"),
    (lambda: lz.spin_cover_so13(np.eye(3)), "expected a 2x2 complex matrix"),
], ids=["boost-d-1", "boost-d-2.5", "unipotent-length", "config-d-3.5", "config-n-2.5", "config-d-4.0",
        "config-n-2.0", "config-d-True", "G0-no-config",
        "AN0-no-config", "unknown-subgroup", "unknown-subgroup-non-group",
        "G0-no-config-non-group", "AN0-no-config-non-group", "spin-cover-3x3"])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
