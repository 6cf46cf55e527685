"""An independent route for the error integral J: the direct matrix product
for the geometry, scipy's Amos K (kve) for the Bessel factor and QUADPACK
(nquad) for the integral.  It shares nothing with j_gamma_quadrature but J's
definition, so a shared mistake in the cycle invariants, the Bessel table,
the height cut or the nested families would not pass both.  J's definition
is itself checked at n = 2: its integrand is the kernel integrated over the
cycle against the horospherical character, by quadrature over the cycle."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from hypcycles import bounds as bd
from hypcycles import cycles as cy
from hypcycles import lorentz as lz
from hypcycles import orbits as ob
from hypcycles import transform as tr

from test_bounds import _two_direction_gamma

CFG = lz.CycleConfig(3, 2)
T, U, S = ob.picard_generators().matrices
USU, UUSU = U @ S @ U, U @ U @ S @ U


def horospherical_point(u, r):
    """n_u a_r . o, written out."""
    q = sum(c * c for c in u)
    return [0.5 * (r + (1.0 + q) / r), 0.5 * (r - (1.0 - q) / r), *(c / r for c in u)]


def j_reference(gamma, u_range, cfg, mu, nu, epsrel=1e-11):
    """log J by the definition

        J = 2^n (pi/2mu)^((n-1)/2) int (sqrt f)^nu K_nu(mu sqrt f) s1^(nu+rho0) r^(nu+rho0-n) dr du

    with p = gamma (n_u a_r . o), f = 1 + sum_{i>n} p_i^2 and s1 = 1/(p_0 - p_1),
    integrated by nquad (at ``epsrel``) over x = log r in [-12, 12] and the window.  The least
    f on a grid sets a common scale exp(-mu sqrt f) that cancels in log J."""
    d, n = cfg.d, cfg.n
    a = nu + 0.5 * (n - 1)
    # the rows of gamma that f and s1 read: 0, 1 and those normal to the cycle
    rows = [row.tolist() for row in np.asarray(gamma, dtype=float)[[0, 1, *range(n + 1, d + 1)]]]

    def point(r, u):
        o = horospherical_point([*u, *[0.0] * (d - n)], r)
        return [sum(g * v for g, v in zip(row, o)) for row in rows]

    def sqrt_f(p, sqrt=math.sqrt):
        return sqrt(1.0 + sum(c * c for c in p[2:]))

    # the scale grid as arrays, through the same elementwise arithmetic
    x, *u = np.meshgrid(np.linspace(-12.0, 12.0, 241),
                        *(np.linspace(lo, hi, 33) for lo, hi in u_range), indexing="ij")
    scale = float(sqrt_f(point(np.exp(x), u), np.sqrt).min())

    def integrand(x, *u):
        p = point(math.exp(x), u)
        sf = sqrt_f(p)
        log = (nu * math.log(sf) + math.log(special.kve(nu, mu * sf)) - mu * (sf - scale)
               - a * math.log(p[0] - p[1]) + (a - n + 1.0) * x)
        return math.exp(log)

    val = integrate.nquad(integrand, [(-12.0, 12.0), *u_range],
                          opts={"epsrel": epsrel, "epsabs": 0.0, "limit": 200})[0]
    pref = 2.0 ** n * (math.pi / (2.0 * mu)) ** ((n - 1) / 2.0)
    return math.log(pref) + math.log(val) - mu * scale


def cycle_integral(gamma, u, r, mu, nu):
    """The kernel integrated over the cycle at n = 2, d = 3, written out:

        int e^(-mu (cosh d(p, y) - sqrt f)) h(y)^(nu+rho0) dy,   p = gamma (n_u a_r . o),

    with y = n_v a_s . o, h(y) = s, dy = s^-n ds dv and f = 1 + p_3^2.  By nquad
    (epsrel 1e-9) over t = log s in t0 +- 12 and v = v0 + e^t0 sinh(xi), xi in +-8,
    about the cycle point (v0, e^t0) below p; for complex nu, the modulus times
    cos(Im nu t) and times sin(Im nu t) are the real and imaginary parts.  Returns the
    (complex) value and the largest log of the modulus, less its log at that point,
    on the edge of the domain."""
    nu = complex(nu)
    p = np.asarray(gamma, dtype=float) @ horospherical_point([u, 0.0], r)
    sqrt_f = math.sqrt(1.0 + p[3] ** 2)
    s0 = 1.0 / (p[0] - p[1])
    v0, t0 = p[2] * s0, 0.5 * math.log(s0 * s0 + (p[3] * s0) ** 2)

    def log_integrand(xi, t):
        y = horospherical_point([v0 + math.exp(t0) * math.sinh(xi), 0.0], math.exp(t))
        cosh_d = p[0] * y[0] - p[1] * y[1] - p[2] * y[2] - p[3] * y[3]
        # |h^(nu+rho0)| s^-n ds = e^((Re nu+rho0-n+1) t) dt, and dv = e^t0 cosh(xi) dxi
        return (-mu * (cosh_d - sqrt_f) + (nu.real + 0.5 - 1.0) * t
                + t0 + math.log(math.cosh(xi)))

    def part(phase):
        return integrate.nquad(lambda xi, t: math.exp(log_integrand(xi, t)) * phase(nu.imag * t),
                               [(-8.0, 8.0), (t0 - 12.0, t0 + 12.0)],
                               opts={"epsrel": 1e-9, "epsabs": 0.0, "limit": 200})[0]

    value = complex(part(math.cos), part(math.sin) if nu.imag else 0.0)
    edge = [(xi, t) for xi in np.linspace(-8.0, 8.0, 321) for t in (t0 - 12.0, t0 + 12.0)]
    edge += [(xi, t) for xi in (-8.0, 8.0) for t in np.linspace(t0 - 12.0, t0 + 12.0, 481)]
    return value, max(log_integrand(xi, t) for xi, t in edge) - log_integrand(0.0, t0)


RANDOM = lz.random_lorentz(np.random.default_rng(3), 3)
IDENTITY = np.eye(4)


@pytest.mark.parametrize("gamma, u, r, mu, nu", [
    (USU, 0.3, 1.2, 3.0, 0.4),
    (RANDOM, -0.7, 0.6, 1.5, 1.1),
    (USU, 0.3, 1.2, 3.0, 0.3 + 1.5j),
    (USU, 0.3, 1.2, 3.0, 2j),
    (RANDOM, -0.7, 0.6, 1.5, 0.3 + 1.5j),
    (IDENTITY, 0.3, 1.2, 3.0, 0.4),
    (IDENTITY, -0.7, 0.6, 1.5, 1.1),
    (IDENTITY, 0.3, 1.2, 3.0, 0.3 + 1.5j),
    (IDENTITY, -0.7, 0.6, 1.5, 2j),
], ids=["USU", "random", "USU-complex", "USU-imaginary", "random-complex", "identity",
        "identity-random-point", "identity-complex", "identity-imaginary"])
def test_js_integrand_is_the_kernel_integrated_over_the_cycle(gamma, u, r, mu, nu):
    # on the cycle cosh d(p, y) = sqrt f cosh d(q, y), q the foot of p, and h(q) = s1 sqrt f,
    # so the integral is h(q)^(nu+rho0) times the n-dimensional transform at mu sqrt f;
    # scipy's kve takes a real order only, so a complex one takes mpmath's K
    if gamma is IDENTITY:
        # p lies on the cycle (f = 1, s1 = r), where cycle_invariants refuses gamma in G0:
        # the library's transform times r^(nu+rho0), sigma0_model's integrand, and the
        # factor e^(mu sqrt f) that cycle_integral carries
        want = tr.selberg_transform_closed(2, mu, nu) * math.exp(mu) * r ** (nu + 0.5)
    else:
        inv = cy.cycle_invariants(gamma, [u], CFG)
        sqrt_f = math.sqrt(inv.f(r))
        z = mu * sqrt_f
        kve = (special.kve(nu, z) if isinstance(nu, float)
               else complex(mpmath.besselk(nu, z) * mpmath.exp(z)))
        want = (2.0 ** 2 * (math.pi / (2.0 * mu)) ** 0.5 * sqrt_f ** nu
                * kve * inv.s1(r) ** (nu + 0.5))
    got, cut = cycle_integral(gamma, u, r, mu, nu)
    assert cut < -700.0
    assert abs(got / want - 1.0) <= 1e-11


def test_horospherical_point_is_n_u_a_r_applied_to_the_origin():
    for u, r in (([0.3, -1.2], 0.7), ([2.0, 0.5], 3.0)):
        want = lz.make_unipotent(u) @ lz.make_scale(r, 3)[:, 0]
        assert np.allclose(horospherical_point(u, r), want, rtol=1e-14, atol=1e-14)


# (gamma, window, mu, nu, log J) across mu and nu, the last two on a window
# whose delta_u minimum (delta_u = 9 + 4u^2 for USU) sits on its edge u = 0.5
PINNED = [
    (USU, ((-3.0, 3.0),), 20.0, 0.3, -63.865545833443704),
    (UUSU, ((-3.0, 3.0),), 5.0, 0.0, -27.222828656576606),
    (USU, ((0.5, 2.0),), 8.0, 1.2, -28.429886263369465),
    (USU, ((0.5, 2.0),), 60.0, 1.2, -197.68430488596775),
]


@pytest.mark.parametrize("gamma, u_range, mu, nu, log_j", PINNED,
                         ids=["USU", "UUSU", "USU-edge-8", "USU-edge-60"])
def test_j_agrees_with_the_independent_route(gamma, u_range, mu, nu, log_j):
    ref = j_reference(gamma, u_range, CFG, mu, nu)
    lib = bd.j_gamma_quadrature(gamma, u_range, CFG, mu, nu)
    assert not lib.degenerate
    assert abs(ref - log_j) <= 1e-11
    assert abs(lib.log_value - log_j) <= 1e-11


def test_j_agrees_with_the_independent_route_at_n_3():
    # (d, n) = (4, 3), a two-dimensional window.  At epsrel 1e-9 the reference takes
    # about 19 s; at 1e-5 about 2.3 s on 2 cores with Python 3.11 (the 241 x 33 x 33
    # scale grid, as arrays, 0.02 s of it, the rest 356,181 integrand calls), agreeing
    # with J to 1.9e-12 in log J.  References at 1e-4 / 1e-6 / 1e-7 are 9.4e-10 /
    # 9.2e-14 / 3.2e-14 off.
    gamma, window, cfg = _two_direction_gamma(), ((-1.5, 1.5), (-1.5, 1.5)), lz.CycleConfig(4, 3)
    lib = bd.j_gamma_quadrature(gamma, window, cfg, 8.0, 0.2)
    assert not lib.degenerate
    assert abs(j_reference(gamma, window, cfg, 8.0, 0.2, epsrel=1e-5) - lib.log_value) <= 2e-11


def test_j_is_left_gamma0_invariant():
    # T lies in the cycle subgroup, so J(T USU) = J(USU), here by both routes
    lib = bd.j_gamma_quadrature(USU, ((-3.0, 3.0),), CFG, 20.0, 0.3).log_value
    assert abs(j_reference(T @ USU, ((-3.0, 3.0),), CFG, 20.0, 0.3) - lib) <= 1e-11
    assert bd.j_gamma_quadrature(T @ USU, ((-3.0, 3.0),), CFG, 20.0, 0.3).log_value == lib


def test_degenerate_flag_fires_exactly_on_the_m_zero_classes():
    # M = lim f / r^2 = sum_{i>n} ((gamma_i0 + gamma_i1)/2)^2, read off the matrix:
    # zero for the parabolics U^k and u^k, which fix the cusp at infinity
    ball = ob.coset_reduce(ob.ball_enumerate(ob.picard_generators(), 6), CFG, mode="double",
                           gamma0_max_len=4)
    reps = ob.delta_spectrum(ball, [0.0], CFG).entries
    assert len(reps) == 45
    flagged, m_zero = set(), set()
    for e in reps:
        if bd.j_gamma_quadrature(e.matrix, ((-1.0, 1.0),), CFG, 20.0, 0.3).degenerate:
            flagged.add(e.word)
        normal = e.matrix[CFG.n + 1:, :2]
        if np.sum((0.5 * normal.sum(axis=1)) ** 2) < 1e-12:
            m_zero.add(e.word)
    assert flagged == m_zero == {c * k for c in "Uu" for k in range(1, 7)}
