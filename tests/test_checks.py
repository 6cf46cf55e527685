"""The shared argument rules: every numeric entry point refuses a bad scalar by
name before any quadrature or search, and the rules' own messages."""

import functools

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
    "bessel_k_scaled_batch-order-nan": (lambda: tr.bessel_k_scaled_batch(NAN, [1.0]), "order"),
    "bessel_k_scaled_batch-z-nan": (lambda: tr.bessel_k_scaled_batch(0.3, [1.0, NAN]), "z"),
    "KScaledInterpolator-order-nan": (lambda: tr.KScaledInterpolator(NAN, 1.0, 2.0), "order"),
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
    "BoxDomain.i_nu-nu-nan": (lambda: BOX.i_nu(NAN), "nu"),
    "sigma0_model-mu-nan": (lambda: bd.sigma0_model(CFG, NAN, 0.3, BOX), "mu"),
    "sigma0_model-nu-nan": (lambda: bd.sigma0_model(CFG, 1.0, NAN, BOX), "nu"),
    "j_gamma_quadrature-nu-nan": (
        lambda: bd.j_gamma_quadrature(U @ S @ U, ((-3.0, 3.0),), CFG, 5.0, NAN), "nu"),
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
    "is_lorentz-tol-nan": (lambda: lz.is_lorentz(U, tol=NAN), "tol"),
    "require_lorentz-tol-nan": (lambda: lz.require_lorentz(U, tol=NAN), "tol"),
    "make_boost-x-nan": (lambda: lz.make_boost(NAN, 3), "x"),
    "make_unipotent-u-nan": (lambda: lz.make_unipotent([NAN, 0.0]), "u"),
    "cycle_invariants-u-nan": (lambda: cy.cycle_invariants(U @ S @ U, [NAN], CFG), "u"),
    "delta_spectrum-u-nan": (lambda: ob.delta_spectrum(_ball(), [NAN], CFG), "u"),
    "counting_function-x_grid-nan": (lambda: ob.counting_function(_table(), [NAN, 2.0]), "x_grid"),
    "counting_function-x_grid-inf": (lambda: ob.counting_function(_table(), [1.0, INF]), "x_grid"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_bad_argument_is_named_before_any_work(monkeypatch, name):
    call, arg = CASES[name]
    reached = lambda *a, **k: pytest.fail("quadrature or search reached")  # noqa: E731
    for module in (quadrature, tr, bd):
        monkeypatch.setattr(module, "quad_family", reached)
    monkeypatch.setattr(cy, "_nelder_mead", reached)
    monkeypatch.setattr(bd, "_nelder_mead", reached)
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        call()


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
    # a checked array is left as it was
    z = np.array([1.0, 2.0])
    _checks.positive(z=z)
    assert z.tolist() == [1.0, 2.0]


def test_documented_infinite_limits_still_give_zero():
    # x = inf is the limit 0 of the scaled evaluators, not a refusal
    assert tr.bessel_k_imag_scaled(2.0, INF) == 0.0
    assert tr.bessel_k_scaled(0.3, INF) == 0.0
