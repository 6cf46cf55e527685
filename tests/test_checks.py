"""The shared argument rules: every numeric entry point refuses a bad scalar by
name before any quadrature or search, and the rules' own messages."""

import functools
import re

import numpy as np
import pytest

from hypcycles import _checks
from hypcycles import bounds as bd
from hypcycles import cycles as cy
from hypcycles import decompose as dc
from hypcycles import lorentz as lz
from hypcycles import orbits as ob
from hypcycles import quadrature
from hypcycles import transform as tr

CFG = lz.CycleConfig(3, 2)
BOX = bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1.0, 2.0))
_, U, S = ob.picard_generators().matrices
USU = U @ S @ U
NAN, INF = float("nan"), float("inf")


def _inv():
    return cy.cycle_invariants(U @ S @ U, [0.3], CFG)


def _spec():
    return bd.SpectrumModel.synthetic_weyl(3, 1.0, 20.0)


def _ball():
    return ob.ball_enumerate(ob.picard_generators(), 2)


def _table():
    return ob.OrbitTable(entries=(ob.OrbitEntry("w", np.eye(4), 1, 1, delta=2.0),))


# (function call, name of the bad argument); the ids give function and value
CASES = {
    "phi_mu-mu-nan": (lambda: tr.phi_mu(NAN, 1.0), "mu"),
    "phi_mu-x-nan": (lambda: tr.phi_mu(1.0, NAN), "x"),
    "phi_mu-x-inf": (lambda: tr.phi_mu(1.0, [0.5, INF]), "x"),
    "bessel_k-order-nan": (lambda: tr.bessel_k(NAN, 1.0), "order"),
    "bessel_k-order-complex-nan": (lambda: tr.bessel_k(complex(0.3, NAN), 1.0), "order"),
    "bessel_k_scaled-order-inf": (lambda: tr.bessel_k_scaled(INF, 1.0), "order"),
    "bessel_k_asymptotic-x-nan": (lambda: tr.bessel_k_asymptotic(NAN), "x"),
    "bessel_k_asymptotic-x-inf": (lambda: tr.bessel_k_asymptotic(INF), "x"),
    "bessel_k_imag_scaled-r-nan": (lambda: tr.bessel_k_imag_scaled(NAN, 1.0), "r"),
    # the scaled evaluators take x = inf, for their limit 0, and nothing at or below 0
    "bessel_k_imag_scaled-x-zero": (lambda: tr.bessel_k_imag_scaled(2.0, 0.0), "x"),
    "bessel_k_imag_scaled-x-nan": (lambda: tr.bessel_k_imag_scaled(2.0, NAN), "x"),
    "bessel_k_scaled-x-zero": (lambda: tr.bessel_k_scaled(0.3, 0.0), "x"),
    "bessel_k_scaled-x-nan": (lambda: tr.bessel_k_scaled(0.3, [1.0, NAN]), "x"),
    "bessel_k_scaled_batch-order-nan": (lambda: tr.bessel_k_scaled_batch(NAN, [1.0]), "order"),
    "bessel_k_scaled_batch-z-nan": (lambda: tr.bessel_k_scaled_batch(0.3, [1.0, NAN]), "z"),
    "KScaledInterpolator-order-nan": (lambda: tr.KScaledInterpolator(NAN, 1.0, 2.0), "order"),
    "KScaledInterpolator-order-complex": (
        lambda: tr.KScaledInterpolator(0.3 + 1e-13j, 1.0, 2.0), "order"),
    # the table's range once had a hand-written test and message of its own
    "KScaledInterpolator-z_lo-zero": (lambda: tr.KScaledInterpolator(0.3, 0.0, 2.0), "z_lo"),
    "KScaledInterpolator-z_range-inf": (lambda: tr.KScaledInterpolator(0.3, 1.0, INF), "z_range"),
    "KScaledInterpolator-z_range-reversed": (
        lambda: tr.KScaledInterpolator(0.3, 2.0, 1.0), "z_range"),
    "gr_3_471_9-alpha-nan": (lambda: tr.gr_identity_3_471_9(NAN, 1.0, 0.3), "alpha"),
    "gr_3_471_9-beta-inf": (lambda: tr.gr_identity_3_471_9(1.0, INF, 0.3), "beta"),
    "gr_3_471_9-beta-nan": (lambda: tr.gr_identity_3_471_9(1.0, NAN, 0.3), "beta"),
    "gr_3_471_9-order-nan": (lambda: tr.gr_identity_3_471_9(1.0, 1.0, NAN), "order"),
    "gr_6_726_4-a-nan": (lambda: tr.gr_identity_6_726_4(NAN, 1.0, 0.5, 0.3), "a"),
    "gr_6_726_4-b-nan": (lambda: tr.gr_identity_6_726_4(1.0, NAN, 0.5, 0.3), "b"),
    "gr_6_726_4-c-nan": (lambda: tr.gr_identity_6_726_4(1.0, 1.0, NAN, 0.3), "c"),
    "gr_6_726_4-order-nan": (lambda: tr.gr_identity_6_726_4(1.0, 1.0, 0.5, NAN), "order"),
    "gr_6_592_12-a-nan": (lambda: tr.gr_identity_6_592_12(NAN, 0.5, 1.0), "a"),
    "gr_6_592_12-b-nan": (lambda: tr.gr_identity_6_592_12(1.0, NAN, 1.0), "b"),
    "gr_6_592_12-c-nan": (lambda: tr.gr_identity_6_592_12(1.0, 0.5, NAN), "c"),
    "selberg_transform_closed-mu-nan": (lambda: tr.selberg_transform_closed(3, NAN, 0.3), "mu"),
    "weyl_count-x-nan": (lambda: bd.weyl_count(NAN, 3, 1.0), "x"),
    "weyl_count-volume-nan": (lambda: bd.weyl_count(1.0, 3, NAN), "volume"),
    "synthetic_weyl-r_max-nan": (lambda: bd.SpectrumModel.synthetic_weyl(3, 1.0, NAN), "r_max"),
    # a dimension below 2 once gave N(x) = 1 or a ZeroDivisionError, a
    # fractional one a spectrum of that dimension
    "weyl_count-d-zero": (lambda: bd.weyl_count(2.0, 0, 1.0), "d"),
    "weyl_count-d-negative": (lambda: bd.weyl_count(2.0, -1, 1.0), "d"),
    "weyl_count-d-nan": (lambda: bd.weyl_count(2.0, NAN, 1.0), "d"),
    "synthetic_weyl-d-zero": (lambda: bd.SpectrumModel.synthetic_weyl(0, 1.0, 10.0), "d"),
    "synthetic_weyl-d-fractional": (lambda: bd.SpectrumModel.synthetic_weyl(2.5, 1.0, 10.0), "d"),
    "SpectrumModel-d-fractional": (lambda: bd.SpectrumModel(2.5, 1.0, [1.0], [1]), "d"),
    "SpectrumModel-volume-nan": (lambda: bd.SpectrumModel(3, NAN, [1.0], [1]), "volume"),
    # a 2-D r was summed whole by spectral_tail_bound
    "SpectrumModel-r-2d": (lambda: bd.SpectrumModel(3, 1.0, [[1.0, 2.0]], [[1, 1]]), "r"),
    "spectral_tail_bound-cutoff-nan": (lambda: bd.spectral_tail_bound(_spec(), NAN), "cutoff"),
    "BoxDomain-r_bounds-nan": (lambda: bd.BoxDomain(((0.0, 1.0),), (NAN, 2.0)), "r_bounds"),
    "BoxDomain-r_bounds-inf": (lambda: bd.BoxDomain(((0.0, 1.0),), (1.0, INF)), "r_bounds"),
    "BoxDomain-v_bounds-inf": (lambda: bd.BoxDomain(((0.0, INF),), (1.0, 2.0)), "v_bounds"),
    "BoxDomain-v_bounds-empty": (lambda: bd.BoxDomain(((1.0, 1.0),), (1.0, 2.0)), "v_bounds"),
    "BoxDomain-v_bounds-flat": (lambda: bd.BoxDomain((0.0, 1.0), (1.0, 2.0)), "v_bounds"),
    "BoxDomain-r_bounds-reversed": (lambda: bd.BoxDomain(((0.0, 1.0),), (2.0, 1.0)), "r_bounds"),
    # a box of one v-interval at n = 3
    "sigma0_model-v_bounds-short": (
        lambda: bd.sigma0_model(lz.CycleConfig(4, 3), 2.0, 0.3, BOX), "v_bounds"),
    "rescaled_limit_shape-v_bounds-short": (
        lambda: bd.rescaled_limit_shape(lz.CycleConfig(4, 3), [10.0, 20.0], 0.3, BOX),
        "v_bounds"),
    "BoxDomain.i_nu-nu-nan": (lambda: BOX.i_nu(NAN), "nu"),
    "sigma0_model-mu-nan": (lambda: bd.sigma0_model(CFG, NAN, 0.3, BOX), "mu"),
    "sigma0_model-nu-nan": (lambda: bd.sigma0_model(CFG, 1.0, NAN, BOX), "nu"),
    "j_gamma_quadrature-nu-nan": (
        lambda: bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, 5.0, NAN), "nu"),
    # |Im nu| above transform.REAL_ORDER_IM, refused by the one real-order rule
    "j_gamma_quadrature-nu-complex": (
        lambda: bd.j_gamma_quadrature(USU, ((-3.0, 3.0),), CFG, 5.0, 0.3 + 1e-13j), "nu"),
    "j_gamma_quadrature-u_range-flat": (
        lambda: bd.j_gamma_quadrature(USU, (-3.0, 3.0), CFG, 5.0, 0.3), "u_range"),
    "j_gamma_quadrature-u_range-nan": (
        lambda: bd.j_gamma_quadrature(USU, ((-3.0, NAN),), CFG, 5.0, 0.3), "u_range"),
    "j_gamma_quadrature-u_range-reversed": (
        lambda: bd.j_gamma_quadrature(USU, ((3.0, -3.0),), CFG, 5.0, 0.3), "u_range"),
    "rescaled_limit_shape-nu-nan": (
        lambda: bd.rescaled_limit_shape(CFG, [10.0, 20.0], NAN, BOX), "nu"),
    "rescaled_limit_shape-mu_grid-nan": (
        lambda: bd.rescaled_limit_shape(CFG, [10.0, NAN], 0.3, BOX), "mu_grid"),
    "make_scale-r-nan": (lambda: lz.make_scale(NAN, 3), "r"),
    "commutation_identities-r-nan": (lambda: lz.commutation_identities(NAN, [1.0, 0.0]), "r"),
    "from_horospherical-r-nan": (lambda: dc.from_horospherical([0.0, 0.0], NAN), "r"),
    # a non-finite direction once gave a point or a distance of nan or inf
    "from_horospherical-u-nan": (lambda: dc.from_horospherical([NAN, 0.0], 1.0), "u"),
    "dist_horospherical-u-nan": (
        lambda: dc.dist_horospherical([NAN, 0.0], 1.0, [0.0, 0.0], 1.0), "u"),
    "dist_horospherical-v-inf": (
        lambda: dc.dist_horospherical([0.0, 0.0], 1.0, [INF, 0.0], 1.0), "v"),
    "dist_horospherical-r-nan": (
        lambda: dc.dist_horospherical([0.0, 0.0], NAN, [1.0, 0.0], 1.0), "r"),
    # a length-1 v once broadcast to (0.1, 0.1) and gave a distance
    "dist_horospherical-v-short": (
        lambda: dc.dist_horospherical([0.1, 0.2], 1.0, [0.1], 1.0), "v"),
    "dist_horospherical-v-long": (
        lambda: dc.dist_horospherical([0.1, 0.2], 1.0, [0.1, 0.2, 0.3], 1.0), "v"),
    "dist_horospherical-t-inf": (
        lambda: dc.dist_horospherical([0.0, 0.0], 1.0, [1.0, 0.0], INF), "t"),
    "f_gamma-r-nan": (lambda: cy.f_gamma(_inv(), NAN), "r"),
    "verify_f_geometric-r-nan": (lambda: cy.verify_f_geometric(U @ S @ U, [0.3], NAN, CFG), "r"),
    "ball_enumerate-quant-nan": (lambda: ob.ball_enumerate(ob.picard_generators(), 3, quant=NAN),
                                 "quant"),
    "ball_enumerate-quant-zero": (lambda: ob.ball_enumerate(ob.picard_generators(), 3, quant=0.0),
                                  "quant"),
    "ball_enumerate-quant-negative": (
        lambda: ob.ball_enumerate(ob.picard_generators(), 3, quant=-1e-9), "quant"),
    "coset_reduce-tol-nan": (lambda: ob.coset_reduce(_ball(), CFG, tol=NAN), "tol"),
    # each of these once returned 15 double classes at Picard length 4
    "coset_reduce-gamma0_max_len-nan": (
        lambda: ob.coset_reduce(_ball(), CFG, mode="double", gamma0_max_len=NAN),
        "gamma0_max_len"),
    "coset_reduce-gamma0_max_len-negative": (
        lambda: ob.coset_reduce(_ball(), CFG, mode="double", gamma0_max_len=-1),
        "gamma0_max_len"),
    "coset_reduce-gamma0_max_len-float": (
        lambda: ob.coset_reduce(_ball(), CFG, mode="double", gamma0_max_len=2.5),
        "gamma0_max_len"),
    # these once passed the range check and raised a TypeError from range
    "ball_enumerate-max_word_length-float": (
        lambda: ob.ball_enumerate(ob.picard_generators(), 2.5), "max_word_length"),
    "ball_enumerate-max_word_length-float64": (
        lambda: ob.ball_enumerate(ob.picard_generators(), np.float64(3.0)), "max_word_length"),
    "check_membership-tol-nan": (lambda: lz.check_membership(U, "G", tol=NAN), "tol"),
    "require_lorentz-tol-nan": (lambda: lz.require_lorentz(U, tol=NAN), "tol"),
    "make_boost-x-nan": (lambda: lz.make_boost(NAN, 3), "x"),
    "make_unipotent-u-nan": (lambda: lz.make_unipotent([NAN, 0.0]), "u"),
    "cycle_invariants-u-nan": (lambda: cy.cycle_invariants(U @ S @ U, [NAN], CFG), "u"),
    "delta_spectrum-u-nan": (lambda: ob.delta_spectrum(_ball(), [NAN], CFG), "u"),
    "counting_function-x_grid-nan": (lambda: ob.counting_function(_table(), [NAN, 2.0]), "x_grid"),
    "counting_function-x_grid-inf": (lambda: ob.counting_function(_table(), [1.0, INF]), "x_grid"),
    # an order of K past |Re| = transform.MAX_REAL_ORDER, refused by the one order rule
    # for each order a call evaluates: these once refused after a window scan or a
    # quadrature, with another message, or raised an OverflowError from the box integral
    "bessel_k-order-60": (lambda: tr.bessel_k(60.0, 1.0), "order"),
    "bessel_k_scaled_batch-order--60": (lambda: tr.bessel_k_scaled_batch(-60.0, [1.0]), "order"),
    "KScaledInterpolator-order-60": (lambda: tr.KScaledInterpolator(60.0, 1.0, 2.0), "order"),
    "gr_3_471_9-order-600": (lambda: tr.gr_identity_3_471_9(1.0, 1.0, 600.0), "order"),
    # the closed side's order sign*order - 1/2 is -50.3
    "gr_6_726_4-order-closed-side": (
        lambda: tr.gr_identity_6_726_4(1.0, 1.0, 0.5, 49.8, -1), "order"),
    "gr_6_592_12-b-c-closed-side": (lambda: tr.gr_identity_6_592_12(1.0, -49.9, 1.0), "b - c"),
    "selberg_transform_closed-nu-60": (lambda: tr.selberg_transform_closed(3, 1.0, 60.0), "nu"),
    "sigma0_model-nu-600": (lambda: bd.sigma0_model(CFG, 1.0, 600.0, BOX), "nu"),
    "rescaled_limit_shape-nu-600": (lambda: bd.rescaled_limit_shape(CFG, [10.0], 600.0, BOX), "nu"),
    "j_gamma_quadrature-nu-60": (
        lambda: bd.j_gamma_quadrature(USU, ((-1.0, 1.0),), CFG, 5.0, 60.0), "nu"),
    # these once ended in "quad_family did not converge" or an OverflowError
    "selberg_transform_quadrature-nu-600": (
        lambda: tr.selberg_transform_quadrature(3, 1.0, 600.0), "nu"),
    "BoxDomain.i_nu-nu-600": (lambda: BOX.i_nu(600.0), "nu"),
    # inside the order range, where r^(2 Re nu) overflows at an end of the window
    "BoxDomain.i_nu-nu-50-wide": (
        lambda: bd.BoxDomain(((0.0, 1.0),), (1.0, 2000.0)).i_nu(50.0), "nu"),
    "BoxDomain.i_nu-nu--50-wide": (
        lambda: bd.BoxDomain(((0.0, 1.0),), (1e-4, 1.0)).i_nu(-50.0), "nu"),
    # these once returned a matrix of infinities
    "make_boost-x-800": (lambda: lz.make_boost(800.0, 3), "x"),
    "make_unipotent-u-1e200": (lambda: lz.make_unipotent([1e200, 0.0]), "u"),
    # a complex-typed b once raised a TypeError after the checks, a non-real one too
    "gr_6_592_12-b-complex": (lambda: tr.gr_identity_6_592_12(1.0, 0.5 + 1j, 1.0), "b"),
}


def _forbid_work(monkeypatch):
    """Make every quadrature and search call fail the test."""
    reached = lambda *a, **k: pytest.fail("quadrature or search reached")  # noqa: E731
    for module in (quadrature, tr, bd):
        monkeypatch.setattr(module, "quad_family", reached)
    monkeypatch.setattr(cy, "_nelder_mead", reached)
    monkeypatch.setattr(bd, "_nelder_mead", reached)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_bad_argument_is_named_before_any_work(monkeypatch, name):
    call, arg = CASES[name]
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        call()


# (d, mu, nu) of the spherical transform with at least one bad: d <= 6, where only the
# quadrature's cost guard would tell the two routes apart
TRANSFORM_GRID = [(d, mu, nu) for d in (3, 1, 2.5, True) for mu in (1.0, 0.0, -1.0, NAN, INF)
                  for nu in (0.3, 600.0, -60.0, 60.0 + 1j, NAN, INF)][1:]


def test_the_transform_routes_refuse_alike_before_any_work(monkeypatch):
    # the quadrature once refused no order: at nu = 600 it ended in "quad_family did
    # not converge", where the closed form refused nu by name
    _forbid_work(monkeypatch)
    for d, mu, nu in TRANSFORM_GRID:
        messages = []
        for route in (tr.selberg_transform_closed, tr.selberg_transform_quadrature):
            with pytest.raises(ValueError) as exc:
                route(d, mu, nu)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], (d, mu, nu)


# the calls that take one group element, with the name their refusal gives it; at
# (3, 2) a stack of two once gave "x must be finite, got -inf", a truth-value error or
# a TypeError, and a stack of one an IndexError
ELEMENT_CALLS = {
    "nak": (dc.nak, "matrix"),
    "ank": (dc.ank, "matrix"),
    "kak": (dc.kak, "matrix"),
    "PreparedCycle": (lambda g: cy.PreparedCycle(g, CFG), "matrix"),
    "cycle_invariants": (lambda g: cy.cycle_invariants(g, [0.3], CFG), "matrix"),
    "delta_u": (lambda g: cy.delta_u(g, 0.3, CFG), "matrix"),
    "verify_f_geometric": (lambda g: cy.verify_f_geometric(g, [0.3], 1.2, CFG), "matrix"),
    "min_dist_geodesic_to_cycle": (lambda g: cy.min_dist_geodesic_to_cycle(g, 0.3, CFG),
                                   "matrix"),
    "j_gamma_quadrature": (lambda g: bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, 5.0, 0.3),
                           "matrix"),
    "GeneratorSet": (lambda g: ob.GeneratorSet(labels=("A",), matrices=(g,)), "generator 'A'"),
}


@pytest.mark.parametrize("stack", [np.stack([USU, USU]), USU[None]], ids=["two", "one"])
@pytest.mark.parametrize("name", sorted(ELEMENT_CALLS))
def test_a_call_on_one_element_refuses_a_stack_by_its_shape(monkeypatch, name, stack):
    call, what = ELEMENT_CALLS[name]
    _forbid_work(monkeypatch)
    message = f"{what} must be one (d+1, d+1) array, got shape {stack.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(stack)


def test_the_stack_calls_still_take_stacks():
    stack = np.stack([USU, U, S, U @ U])
    assert lz.require_lorentz(stack).tobytes() == stack.tobytes()
    assert (lz.check_membership(stack, "G0", CFG).tolist()
            == [lz.check_membership(g, "G0", CFG) for g in stack])
    assert cy.invariants_stack(stack, [0.3], CFG).delta.tolist() == [
        cy.delta_u(g, 0.3, CFG) for g in stack]
    ball = _ball()
    outside = [g for g in ball.mats if not lz.check_membership(g, "G0", CFG, lz.TOL_G0)]
    top, _ = cy.check_u11_gap(ball, CFG)
    assert top == pytest.approx(max(abs(dc.nak(g).k[1, 1]) for g in outside), rel=1e-12)


@pytest.mark.parametrize("rule, value, message", [
    (_checks.finite, [1.0, NAN], "v must be finite, got nan"),
    (_checks.finite, complex(0.3, INF), "v must be finite, got (0.3+infj)"),
    (_checks.positive, 0.0, "v must be positive (finite and positive only), got 0.0"),
    (_checks.positive, [[1.0, 2.0], [-INF, 1.0]], "v must be positive"),
    (_checks.nonnegative, -1.0, "v must be finite and nonnegative, got -1.0"),
    (_checks.nonnegative, np.float64(INF), "v must be finite and nonnegative, got inf"),
    (_checks.integer, 3.0, "v must be an integer, got 3.0"),
    (_checks.integer, True, "v must be an integer, got True"),
    (functools.partial(_checks.integer, at_least=0), -1, "v must be an integer >= 0, got -1"),
    (_checks.positive_or_inf, 0.0, "v must be positive (+inf included), got 0.0"),
    (_checks.positive_or_inf, [INF, NAN], "v must be positive (+inf included), got nan"),
    (functools.partial(_checks.window, k=1), (-3.0, 3.0),
     "v must be 1 finite interval(s) (lo, hi) with lo < hi, got (-3.0, 3.0)"),
    (functools.partial(_checks.window, k=2), ((0.0, 1.0),),
     "v must be 2 finite interval(s) (lo, hi) with lo < hi, got ((0.0, 1.0),)"),
    (_checks.window, ((0.0, 1.0), (2.0, NAN)),
     "v must be finite interval(s) (lo, hi) with lo < hi, got (2.0, nan)"),
    (_checks.window, [[1.0, 1.0]],
     "v must be finite interval(s) (lo, hi) with lo < hi, got (1.0, 1.0)"),
    (lambda v: tr._real_order(v, "v"), 0.3 + 1e-13j,
     "v must be real (|Im| <= 1e-14), got (0.3+1e-13j)"),
    (lambda v: tr._real_order(v, "v"), complex(NAN, 0.0), "v must be finite, got (nan+0j)"),
    (lambda v: tr._normalize_order(v, "v"), 600.0, "v must be an order with |Re| <= 50, got (600+0j)"),
    (lambda v: tr._normalize_order(v, "v"), complex(INF, 1.0), "v must be finite, got (inf+1j)"),
])
def test_rule_names_the_argument_and_a_bad_value(rule, value, message):
    with pytest.raises(ValueError) as exc:
        rule(v=value)
    assert str(exc.value).startswith(message)


def test_rules_accept_the_edges_of_their_range():
    _checks.finite(a=-1e308, b=[0.0, 1j], c=np.zeros(0))
    _checks.positive(a=5e-324, b=np.float64(1e308), c=[1, 2])
    _checks.nonnegative(a=0.0, b=-0.0, c=np.array([0.0, 1.0]))
    _checks.integer(a=-3, b=np.int64(2), at_least=None)
    _checks.integer(a=0, b=np.uint8(0), at_least=0)
    _checks.positive_or_inf(a=5e-324, b=INF, c=[1.0, INF])
    _checks.window(a=((-1e308, 1e308), (0.0, 5e-324)), b=[[1, 2]])
    _checks.window(k=1, a=((0.0, 1.0),))
    # |Im| = REAL_ORDER_IM counts as real, and the order comes back as a Python float
    got = [tr._real_order(v, "a") for v in (0.3 + 1e-14j, np.float64(-2.0), 1)]
    assert got == [0.3, -2.0, 1.0]
    assert type(tr._real_order(np.complex128(0.3), "a")) is float
    # a checked array is left as it was
    z = np.array([1.0, 2.0])
    _checks.positive(z=z)
    assert z.tolist() == [1.0, 2.0]


def test_documented_infinite_limits_still_give_zero():
    # x = inf is the limit 0 of the scaled evaluators, not a refusal
    assert tr.bessel_k_imag_scaled(2.0, INF) == 0.0
    assert tr.bessel_k_scaled(0.3, INF) == 0.0
