from dataclasses import replace

import numpy as np
import pytest

from hypcycles import bounds as bd
from hypcycles import cycles as cy
from hypcycles import decompose as dc
from hypcycles import lorentz as lz
from hypcycles.orbits import (
    Ball,
    ball_enumerate,
    coset_reduce,
    delta_spectrum,
    fuchsian_generators,
    picard_generators,
)

CFG = lz.CycleConfig(3, 2)


def _picard():
    mats = dict(zip(picard_generators().labels, picard_generators().matrices))
    return mats["T"], mats["U"], mats["S"]


def test_block_elements_have_trivial_invariants():
    T, U, S = _picard()
    for g0 in (T, S, T @ S @ T, lz.make_boost(0.9, 3)):
        inv = cy.cycle_invariants(g0, [0.7], CFG)
        assert inv.M == pytest.approx(0.0, abs=1e-14)
        assert inv.N_u == pytest.approx(0.0, abs=1e-13)
        assert inv.Q_u == pytest.approx(1.0, abs=1e-13)
        assert inv.delta == pytest.approx(1.0, abs=1e-13)


def test_parabolic_generator_invariants():
    # the generator translating off the cycle: M = 0, N = 1, delta = 1
    _, U, _ = _picard()
    inv = cy.cycle_invariants(U, [0.0], CFG)
    assert inv.M == pytest.approx(0.0, abs=1e-14)
    assert inv.N_u == pytest.approx(1.0, abs=1e-13)
    assert inv.Q_u == pytest.approx(1.0, abs=1e-13)
    assert inv.r_star == np.inf


def test_dimension_refusal_and_r_star_at_vanishing_coefficients():
    _, U, S = _picard()
    with pytest.raises(ValueError, match="^matrix dimension does not match CycleConfig"):
        cy.cycle_invariants(U @ S @ U, [0.3], lz.CycleConfig(4, 2))
    inv = cy.cycle_invariants(U @ S @ U, [0.3], CFG)
    assert replace(inv, N_u=0.0).r_star == 0.0
    assert replace(inv, M=0.0, N_u=0.0).r_star == 1.0


@pytest.mark.parametrize("call", [
    lambda g, ball, cfg: lz.check_membership(g, "G0", cfg),
    lambda g, ball, cfg: lz.check_membership(g, "AN0", cfg),
    lambda g, ball, cfg: bd.j_gamma_quadrature(g, ((-3.0, 3.0),), cfg, 5.0, 0.3),
    lambda g, ball, cfg: cy.check_u11_gap(ball, cfg),
    lambda g, ball, cfg: cy.cycle_invariants(g, [0.3], cfg),
    lambda g, ball, cfg: coset_reduce(ball, cfg),
], ids=["check_membership-G0", "check_membership-AN0", "j_gamma_quadrature", "check_u11_gap",
        "cycle_invariants", "coset_reduce"])
def test_a_matrix_of_another_dimension_gets_one_message(call):
    # the first four once raised the reversed "CycleConfig dimension does not match matrix"
    _, U, S = _picard()
    with pytest.raises(ValueError, match="^matrix dimension does not match CycleConfig$"):
        call(U @ S @ U, ball_enumerate(picard_generators(), 2), lz.CycleConfig(4, 2))


@pytest.mark.parametrize("call", [
    lambda ball, cfg: cy.check_u11_gap(ball, cfg),
    lambda ball, cfg: cy.invariants_stack(ball.mats, [0.3], cfg),
    lambda ball, cfg: coset_reduce(ball, cfg),
], ids=["check_u11_gap", "invariants_stack", "coset_reduce"])
def test_an_empty_ball_of_another_dimension_is_refused(call):
    # check_u11_gap once returned (None, []) here, skipping the check on no elements
    ball = Ball(words=(), mats=np.zeros((0, 5, 5)), lengths=np.zeros(0, dtype=int),
                ids=np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="^matrix dimension does not match CycleConfig$"):
        call(ball, lz.CycleConfig(3, 2))


def test_invariants_stack_refuses_an_empty_list_by_its_shape():
    # an empty list is a 1-D array, no empty stack; it once raised a bare IndexError
    with pytest.raises(ValueError, match=r"^matrix must be a .* got shape \(0,\)$"):
        cy.invariants_stack([], [0.3], CFG)


def test_check_u11_gap_refuses_a_first_element_outside_the_group_first():
    # before the dimension check, as a loop's first check_membership would
    ball = Ball(words=("x",), mats=np.diag([2.0, 1.0, 1.0, 1.0, 1.0])[None],
                lengths=np.ones(1, dtype=int), ids=np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="^matrix is not in the identity component of SO"):
        cy.check_u11_gap(ball, CFG)


def test_f_gamma_shape_and_minimum():
    T, U, S = _picard()
    inv = cy.cycle_invariants(T @ U @ S @ U, [0.4], CFG)
    assert inv.M > 0 and inv.N_u > 0
    r_star = inv.r_star
    assert cy.f_gamma(inv, r_star) == pytest.approx(inv.delta, rel=1e-12)
    grid = np.geomspace(r_star / 3, 3 * r_star, 301)
    assert np.all(cy.f_gamma(inv, grid) >= inv.delta - 1e-12)
    with pytest.raises(ValueError):
        cy.f_gamma(inv, 0.0)


def test_degenerate_cases_give_unit_q():
    # M N_u = 0 forces Q_u = 1 (and so delta = 1)
    T, U, S = _picard()
    for g, u in [(U, [0.0]), (U @ S, [0.0]), (S @ U, [0.3])]:
        inv = cy.cycle_invariants(g, u, CFG)
        if inv.M * inv.N_u < 1e-20:
            assert inv.Q_u == pytest.approx(1.0, abs=1e-12)
            assert inv.delta == pytest.approx(1.0, abs=1e-12)


def test_verify_f_geometric_matches_brute_force():
    T, U, S = _picard()
    rng = np.random.default_rng(31)
    worst = 0.0
    for g in (U, S @ U, U @ T, S @ U @ T, T @ U @ S @ U):
        for _ in range(6):
            u = rng.uniform(-2, 2, size=1)
            r = float(np.exp(rng.uniform(-1.2, 1.2)))
            closed, brute, gap = cy.verify_f_geometric(g, u, r, CFG)
            worst = max(worst, gap)
    assert worst < 1e-8


def test_verify_f_geometric_block_element_is_zero():
    T, _, S = _picard()
    closed, brute, gap = cy.verify_f_geometric(T @ S, [0.5], 1.2, CFG)
    assert closed == pytest.approx(0.0, abs=1e-12)
    assert brute < 1e-6


def test_distance_inequality_chain():
    # cosh d(gamma w, z) >= sqrt(f) for arbitrary z on the cycle
    T, U, S = _picard()
    g = U @ T
    rng = np.random.default_rng(5)
    u, r = np.array([0.3]), 1.4
    inv = cy.cycle_invariants(g, u, CFG)
    point = g @ dc.from_horospherical(cy.pad_direction(u, CFG), r)
    target = np.sqrt(inv.f(r))
    for _ in range(100):
        z = cy.cycle_point(rng.uniform(-4, 4, size=1), float(np.exp(rng.uniform(-2, 2))), CFG)
        assert np.cosh(dc.dist(point, z)) >= target - 1e-10


def test_delta_u_left_invariance():
    T, U, S = _picard()
    g0s = [T, S, T @ S, lz.make_boost(0.7, 3), lz.make_unipotent([0.3, 0.0])]
    for g in (S @ U, U @ T, T @ U @ S @ U):
        for u in ([0.0], [0.8]):
            base = cy.delta_u(g, u, CFG)
            for g0 in g0s:
                assert cy.delta_u(g0 @ g, u, CFG) == pytest.approx(base, abs=1e-9)


def _geodesic_oracle_gap(g, u, cfg):
    inv = cy.cycle_invariants(g, u, cfg)
    closed = np.arccosh(max(np.sqrt(inv.delta), 1.0))
    return abs(closed - cy.min_dist_geodesic_to_cycle(g, u, cfg))


def test_delta_u_equals_nested_minimization():
    T, U, S = _picard()
    for g, u in [(U @ S @ T, [0.5]), (T @ U @ S @ U, [0.0])]:
        inv = cy.cycle_invariants(g, u, CFG)
        assert inv.M * inv.N_u > 1e-10  # nondegenerate: interior minimum
        assert _geodesic_oracle_gap(g, u, CFG) < 1e-6


def test_delta_spectrum_against_the_distance_oracle():
    # every representative of the Picard length-6 double spectrum whose
    # minimum over the height is attained (M N_u > 0), at two directions
    ball = coset_reduce(ball_enumerate(picard_generators(), 6), CFG, mode="double")
    for u in (0.0, 0.3):
        reps = [e for e in delta_spectrum(ball, [u], CFG).entries if e.M * e.N_u > 1e-10]
        assert len(reps) == 33
        for e in reps:
            assert _geodesic_oracle_gap(e.matrix, [u], CFG) < 1e-6, e.word
    # and 12 seeded elements per (d, n), d <= 5, skipping degenerate draws only
    for d in range(3, 6):
        for n in range(2, d):
            cfg = lz.CycleConfig(d, n)
            rng = np.random.default_rng(100 * d + n)
            checked = 0
            while checked < 12:
                g = lz.random_lorentz(rng, d)
                u = rng.uniform(-1.0, 1.0, size=n - 1)
                inv = cy.cycle_invariants(g, u, cfg)
                if inv.M * inv.N_u > 1e-10:
                    assert _geodesic_oracle_gap(g, u, cfg) < 1e-6, (d, n, checked)
                    checked += 1


def test_delta_lower_bound_and_cauchy_schwarz():
    rng = np.random.default_rng(41)
    for _ in range(300):
        d = int(rng.integers(3, 6))
        n = int(rng.integers(2, d))
        cfg = lz.CycleConfig(d, n)
        g = lz.random_lorentz(rng, d)
        u = rng.uniform(-2, 2, size=n - 1)
        inv = cy.cycle_invariants(g, u, cfg)
        assert inv.delta >= 1.0 - 1e-12
        assert np.sqrt(inv.M * inv.N_u) >= float(inv.m @ inv.n_coeffs) - 1e-10
        assert 0.5 * (1.0 + inv.u11) + inv.beta >= -1e-12
        assert abs(inv.u11) <= 1.0 + 1e-12


def test_compact_factor_ambiguity_does_not_move_f():
    # multiplying gamma on the right by a block rotation of the cycle
    # directions relabels u but cannot change the minimal distance
    T, U, S = _picard()
    g = U @ T
    u, r = np.array([0.4]), 1.3
    inv = cy.cycle_invariants(g, u, CFG)
    flip = np.diag([1.0, 1.0, -1.0, 1.0]) @ np.diag([1.0, 1.0, 1.0, -1.0])
    g2 = g @ flip  # rotation by pi inside the spatial block
    inv2 = cy.cycle_invariants(g2, -u, CFG)
    assert inv2.f(r) == pytest.approx(inv.f(r), rel=1e-12)


def _ball(**named):
    """A Ball of the named elements."""
    return Ball(words=tuple(named), mats=np.asarray(list(named.values())),
                lengths=np.asarray([len(w) for w in named]), ids=np.arange(len(named)))


def test_check_u11_gap_reports():
    T, U, S = _picard()
    # vacuous over a block-only ball
    mx, viol = cy.check_u11_gap(_ball(T=T, S=S), CFG)
    assert mx is None and viol == []
    # the parabolic generator fixing the boundary direction hits u11 = 1;
    # this is the documented failure mode of non-cocompact stand-ins
    mx, viol = cy.check_u11_gap(_ball(U=U, SU=S @ U, UT=U @ T), CFG)
    assert mx == pytest.approx(1.0, abs=1e-12)
    assert ("U", pytest.approx(1.0, abs=1e-12)) in [(w, v) for w, v in viol]
    # loxodromic-type elements stay strictly inside
    mx, viol = cy.check_u11_gap(_ball(SU=S @ U, SUS=S @ U @ S), CFG)
    assert mx is not None and mx < 1.0 - 1e-9


def _u11_gap_per_element(ball, cfg):
    """check_u11_gap as a loop of check_membership and ank over the
    elements: the oracle for its stacked factorization."""
    max_u11, violations = None, []
    for word, g in zip(ball.words, ball.mats):
        if lz.check_membership(g, "G0", cfg, tol=1e-8):
            continue
        u11 = float(dc.ank(g).k[1, 1])
        if max_u11 is None or abs(u11) > max_u11:
            max_u11 = abs(u11)
        if abs(u11) >= 1.0 - 1e-9:
            violations.append((word, u11))
    return max_u11, violations


def _outcome(check, ball, cfg):
    try:
        return check(ball, cfg)
    except ValueError as exc:
        return str(exc)


def test_check_u11_gap_equals_the_per_element_loop():
    pic, modular = picard_generators(), fuchsian_generators()
    balls = [(ball_enumerate(pic, 6), CFG), (ball_enumerate(modular, 6), CFG)]
    h = lz.make_boost(3.0, 3) @ lz.make_unipotent(np.array([3.0, 0.0]), 3)
    # entries near e^6: some elements fail the group check
    balls.append((replace(balls[0][0], mats=lz.lorentz_inverse(h) @ balls[0][0].mats @ h), CFG))
    rng = np.random.default_rng(3)
    for d, n in ((4, 3), (5, 3)):
        mats = np.asarray([np.eye(d + 1)] + [lz.random_lorentz(rng, d) for _ in range(30)])
        ball = Ball(words=tuple(f"g{i}" for i in range(31)), mats=mats,
                    lengths=np.ones(31, dtype=int), ids=np.arange(31))
        balls += [(ball, lz.CycleConfig(d, n)), (ball, lz.CycleConfig(d + 1, n))]
        mats = mats.copy()
        mats[4] = np.diag([2.0] + [1.0] * d)
        balls.append((replace(ball, mats=mats), lz.CycleConfig(d, n)))
    outcomes = [_outcome(cy.check_u11_gap, ball, cfg) for ball, cfg in balls]
    assert outcomes == [_outcome(_u11_gap_per_element, ball, cfg) for ball, cfg in balls]
    assert outcomes[1] == (None, []) and len(outcomes[0][1]) > 0
    assert sum(isinstance(o, str) for o in outcomes) == 5


def test_invariants_validation():
    with pytest.raises(ValueError):
        cy.cycle_invariants(np.diag([2.0, 1, 1, 1]), [0.0], CFG)
    T, U, S = _picard()
    with pytest.raises(ValueError):
        cy.cycle_invariants(U, [0.0, 0.0], CFG)


@pytest.mark.parametrize("d, n", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 4)])
def test_invariants_batch_rows_equal_scalar_invariants(d, n):
    # every row of one batch call, bit for bit against its batch of one
    cfg = lz.CycleConfig(d, n)
    rng = np.random.default_rng(10 * d + n)
    for _ in range(4):
        prep = cy.PreparedCycle(lz.random_lorentz(rng, d), cfg)
        dirs = rng.normal(size=(60, n - 1))
        U = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.0, 3.0, size=(60, 1))
        U[0] = 0.0
        batch = prep.invariants_batch(U)
        r = np.exp(rng.uniform(-2.0, 2.0, size=len(U)))
        k = np.arange(len(U))
        f_rows, s1_rows = batch.f(r, k), batch.s1(r, k)
        for i, u in enumerate(U):
            inv = prep.invariants(u)
            assert inv.M == batch.M
            for key in ("beta", "N_u", "Q_u", "delta"):
                assert getattr(inv, key) == getattr(batch, key)[i], (key, i)
            assert np.array_equal(inv.n_coeffs, batch.n_coeffs[i]), i
            assert inv.f(r[i]) == f_rows[i] and inv.s1(r[i]) == s1_rows[i]


def test_invariants_of_one_direction_are_python_floats():
    # the CLI writes these with repr, where an np.float64 would change the bytes
    T, U, S = _picard()
    inv = cy.PreparedCycle(U @ S @ U, CFG).invariants([0.3])
    for key in ("M", "beta", "N_u", "Q_u"):
        assert type(getattr(inv, key)) is float, key
    assert inv.n_coeffs.shape == (CFG.d - CFG.n,)


def test_invariants_batch_validation():
    _, U, _ = _picard()
    prep = cy.PreparedCycle(U, CFG)
    for bad in (np.zeros((3, 2)), np.zeros((3, 0)), np.zeros(1)):
        with pytest.raises(ValueError):
            prep.invariants_batch(bad)
    with pytest.raises(ValueError):
        prep.invariants(np.zeros(2))


def test_invariants_batch_refuses_non_finite_directions():
    _, U, S = _picard()
    prep = cy.PreparedCycle(U @ S @ U, CFG)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^U must be finite"):
            prep.invariants_batch([[bad], [0.3]])
