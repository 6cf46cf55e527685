"""Assembly-level numerics: total mass of the test function, the main-term
model integral over a compact window, the per-element error integrand J and
its decay, spectral-tail convergence under the Weyl counting law, and the
exp(mu)-rescaled limit shape.

J nests its window coordinates and the height r as quadrature families:
each wave of window points gets its cycle invariants from one
``PreparedCycle.invariants_batch`` call and integrates all of its height
integrals as one family.  The window minimum delta_min comes from a grid
evaluated in one batch call and polished by the Nelder-Mead simplex of
``cycles._nelder_mead`` (scipy's method ported to numpy), an oracle kept
independent of the closed-form minimum.

Each height integral ends where a proven bound on its relative tail is
1e-16 (``_height_cut``), not where its integrand underflows.  The Bessel
table's argument is still clamped at z_hi, which a cut range passes where
delta_u lies far above delta_min.

Calls share what does not depend on mu.  The window scan is memoised per
(gamma, window, CycleConfig), so a mu sweep of one gamma scans once; the
Lorentz and G0 checks still run on every call.  The Bessel table is memoised
per (order, a, b) and spans the octaves [2^a, 2^b] enclosing the call's
range [0.999 mu sqrt(delta_min), z_hi]: a J value depends on its inputs
alone, never on which calls came before, and every table in use passed its
self-audit when it was built.

Anything that multiplies exp(mu) against exp(-mu)-sized factors is carried
as (log magnitude, sign) so that sweeps up to mu = 60 stay in range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .cycles import PreparedCycle, _nelder_mead
from .lorentz import TOL_G0, check_membership, require_lorentz
from .quadrature import quad_family, quad_gk
from .transform import (_EXP_CUT, REAL_ORDER_IM, KScaledInterpolator, _exp_in_place, _gap,
                        bessel_k_scaled, selberg_transform_agreement)

# largest mu of the rescaled limit-shape sweep
SWEEP_MU_CAP = 60.0


# ---------------------------------------------------------------------------
# spectra and counting


def weyl_count(x, d, volume):
    """Leading Weyl term vol/((4 pi)^(d/2) Gamma(d/2+1)) x^d."""
    _checks.nonnegative(x=x, volume=volume)
    _checks.integer(d=d, at_least=2)
    return volume / ((4.0 * np.pi) ** (d / 2.0) * math.gamma(d / 2.0 + 1.0)) * x ** d


@dataclass(frozen=True, eq=False)
class SpectrumModel:
    """Eigenvalue frequencies r_j (lambda_j = rho^2 + r_j^2) with
    multiplicities; either measured or synthesized from the Weyl law."""

    d: int
    volume: float
    r: np.ndarray
    mult: np.ndarray

    def __post_init__(self):
        _checks.integer(d=self.d, at_least=2)
        _checks.nonnegative(volume=self.volume)
        r = np.asarray(self.r, dtype=float)
        m = np.asarray(self.mult)
        if r.ndim != 1:
            raise ValueError(f"r must be one-dimensional, got shape {r.shape}")
        if r.shape != m.shape:
            raise ValueError(f"r and mult need equal shapes, got {r.shape} and {m.shape}")
        _checks.finite(r=r)
        if np.any(np.diff(r) < 0):
            raise ValueError("frequencies must be nondecreasing")
        if not np.all(m >= 1):     # NaN fails the comparison, so it raises too
            raise ValueError("multiplicities must be >= 1")

    @classmethod
    def synthetic_weyl(cls, d, volume, r_max):
        """r_j solving N(r_j) = j for the leading Weyl term, up to r_max."""
        _checks.nonnegative(r_max=r_max)
        c = weyl_count(1.0, d, volume)
        j_max = int(np.floor(c * r_max ** d))
        j = np.arange(1, j_max + 1, dtype=float)
        return cls(d=d, volume=volume, r=(j / c) ** (1.0 / d),
                   mult=np.ones(j_max, dtype=int))


def spectral_tail_bound(spec, cutoff):
    """Tail sum_{r_j > R} r_j^d exp(-(pi/2) r_j) of the kernel-convergence
    chain (absolute constants set to 1; the bound is uniform in mu), plus
    the mass sitting between R and 2R."""
    _checks.nonnegative(cutoff=cutoff)
    r = np.asarray(spec.r, dtype=float)
    m = np.asarray(spec.mult, dtype=float)
    terms = m * r ** spec.d * np.exp(-0.5 * np.pi * r)
    tail = float(terms[r > cutoff].sum())
    between = float(terms[(r > cutoff) & (r <= 2.0 * cutoff)].sum())
    return tail, between


# ---------------------------------------------------------------------------
# total mass of the test function over the group


def f_total_integral(d, mu):
    """(closed, quadrature, gap) for the group integral of the test
    function: closed form 2^d (pi/2mu)^((d-1)/2) K_{(d-1)/2}(mu) against the
    transform integral with the character dropped, i.e. the transform's
    agreement at nu = -rho, its quadrature to a relative 1e-9."""
    closed, quad, gap = selberg_transform_agreement(d, mu, -(d - 1) / 2.0)
    return float(closed), float(quad), gap


# ---------------------------------------------------------------------------
# main-term model over a compact coordinate window


@dataclass(frozen=True)
class BoxDomain:
    """Product window in (v, r): per-axis intervals for v in R^(n-1) and an
    r-interval bounded away from 0; stands in for a compact fundamental
    window of the cycle."""

    v_bounds: tuple
    r_bounds: tuple

    def __post_init__(self):
        _checks.positive(r_bounds=self.r_bounds)
        _checks.finite(v_bounds=self.v_bounds)
        if not all(lo < hi for lo, hi in (self.r_bounds, *self.v_bounds)):
            raise ValueError("empty box: need lo < hi on every axis")

    @property
    def v_volume(self):
        return float(np.prod([hi - lo for lo, hi in self.v_bounds]))

    def i_nu(self, nu):
        """Exact window integral of r^(2 Re nu - 1) dr dv."""
        _checks.finite(nu=nu)
        a = 2.0 * complex(nu).real
        r_lo, r_hi = self.r_bounds
        if abs(a) < 1e-14:
            radial = np.log(r_hi / r_lo)
        else:
            radial = (r_hi ** a - r_lo ** a) / a
        return self.v_volume * float(radial)


def sigma0_model(cfg, mu, nu, box):
    """Main-term model integral over the window: closed form

        2^n (pi/2mu)^((n-1)/2) K_nubar(mu) * int_box r^(2 Re nu - 1) dr dv

    against direct quadrature of the layered integral (the transform to a
    relative 1e-8, the radial factor to 1e-10).  Returns (closed,
    quadrature, gap), the first two complex for a complex-typed nu
    (``0.3+0j`` included) and floats otherwise, as the transform's are.
    Both sides are the n-dimensional spherical transform at nubar times the
    window integral, so the transform's quadrature cost guard
    n <= transform.MAX_QUAD_DIM applies.
    """
    if len(box.v_bounds) != cfg.n - 1:
        raise ValueError("box must give one v-interval per cycle direction")
    nu_c = complex(nu)
    i_nu = box.i_nu(nu_c)
    # the layered integral over (u, s) is the transform integral at -nubar
    # after the substitution s = 1/r; the closed form is even in its order
    h_closed, h_quad, _ = selberg_transform_agreement(cfg.n, mu, -nu_c.conjugate(), rel_tol=1e-8)
    radial = quad_gk(lambda r: r ** (2.0 * nu_c.real - 1.0), *box.r_bounds, rel_tol=1e-10).value
    closed, quad = complex(h_closed * i_nu), complex(h_quad * box.v_volume * radial)
    gap = _gap(closed, quad)
    # typed like the transform's result: complex for a complex-typed nu
    if np.iscomplexobj(nu):
        return closed, quad, gap
    return closed.real, quad.real, gap


# ---------------------------------------------------------------------------
# the per-class error integrand J and its decay


@dataclass(frozen=True)
class JGammaResult:
    log_value: float
    value: float
    delta_min: float
    degenerate: bool
    n_min: float


def _delta_grid(prep, u_range):
    """The 33^(n-1) points of the window with delta_u and N_u at each,
    from one batch evaluation."""
    axes = [np.linspace(lo, hi, 33) for lo, hi in u_range]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    invs = prep.invariants_batch(pts)
    return pts, invs.delta, invs.N_u


def _delta_scan(prep, u_range):
    """Minimum of delta_u over the window, plus the refined minimum of N_u
    (the convergence witness): grid scans, each polished by the Nelder-Mead
    simplex from its best grid point (objectives clipped to the window,
    xatol 1e-10, fatol 1e-12, at most 200 x dimension iterations)."""
    pts, deltas, n_vals = _delta_grid(prep, u_range)
    lo_clip = [lo for lo, _ in u_range]
    hi_clip = [hi for _, hi in u_range]

    def polish(values, objective):
        i0 = int(np.argmin(values))
        _, fun = _nelder_mead(lambda u: objective(np.clip(u, lo_clip, hi_clip)), pts[i0])
        return float(min(values[i0], fun))

    d_min = polish(deltas, lambda u: prep.invariants(u).delta)
    n_min = polish(n_vals, lambda u: prep.invariants(u).N_u)
    return max(d_min, 1.0), max(n_min, 0.0)


@functools.lru_cache(maxsize=64)
def _window_scan(gamma_bytes, shape, u_range, cfg):
    """(PreparedCycle, delta_min, n_min) of the gamma stored in
    ``gamma_bytes``: the mu-independent part of J, memoised."""
    prep = PreparedCycle(np.frombuffer(gamma_bytes).reshape(shape), cfg)
    return (prep, *_delta_scan(prep, u_range))


@functools.lru_cache(maxsize=32)
def _k_table(order, a, b):
    """The audited Bessel table of a real order over [2^a, 2^b]."""
    return KScaledInterpolator(order, 2.0 ** a, 2.0 ** b)


# log of the bound on each height integral's cut-off relative tail.  A cut
# is a bias that no error estimate sees, so it sits at a rounding of the
# value, 1e-8 of the height rel_tol: a 1e-10 bound moved log J by 3.5e-11
_HEIGHT_TAIL = math.log(1e-16)


def _height_cut(mu, nu, rho0, M, N_u, delta):
    """Ends (x* - T, x* + T) in x = log r of each height integral of J, with
    x* = log(N_u/M)/4, past which its relative tail is proven at most
    exp(_HEIGHT_TAIL); all members at once, by three Newton steps.

    In t = x - x*, with q^2 = sqrt(M N_u) and D = delta_u,

        f = (sqrt(M) r - sqrt(N_u)/r)^2 + D = 4 q^2 sinh(t)^2 + D,

    so y = sqrt f is even in t, with y' = 2 q^2 sinh(2t)/y increasing for
    t >= 0 (y'^2 rises in sinh(t)^2) and y' >= (y^2 - D)/y >= y - sqrt D.
    The integrand is y^nu K_nu(mu y) P, P = s1^(nu+rho0) r^(nu-rho0), and
    s1 = r0/(a r + b/r) with a = (1 - u11)/2 >= 0 and b >= 0 (the rotation's
    first row is a unit vector), so |(log P)'| <= kappa = |nu + rho0| +
    |nu - rho0|.  K_nu(z) and e^z K_nu(z) = int_0^inf exp(-z (cosh s - 1))
    cosh(nu s) ds (DLMF 10.32.9) both fall in z.  So on |t| <= tau the
    integrand is at least min(y^nu) K_nu(mu y_tau) P(0) e^(-kappa tau), on
    |t| >= T >= tau at most y^nu e^(-mu (y - y_tau)) K_nu(mu y_tau) P(0)
    e^(kappa |t|), and the relative tail beyond +-T is at most
    (1/tau) int_T^inf exp(E), with

        E(t) = nu+ log(y/sqrt D) - mu (y - y_tau) + kappa (t + tau),

    nu+ = max(nu, 0) (for nu < 0, y^nu <= y_tau^nu on the tail).  Take T0
    with mu y(T0) = mu y_tau + A, A = max(20, 2 (nu+ + kappa) + 1).  Past
    T0, mu - nu+/y >= mu/2 and mu y' >= A, so E' <= E'(T0) = -lam0 <=
    -(A + 1)/2 and E'' <= -(mu - nu+/y) y'' <= 0.  The tail is then at most
    exp(E(T))/(tau lam0), and T solves E(T) = log(tau lam0) + _HEIGHT_TAIL
    on [T0, inf).  E is concave there, so every Newton step from T0 lands
    at or past the root and stays there: the cut holds after any number of
    steps.  tau = 2/(kappa + sqrt(kappa^2 + 16 mu q^2/sqrt D)) minimises
    mu y_tau + kappa tau - log tau to second order in tau.
    """
    kappa = abs(nu + rho0) + abs(nu - rho0)
    nu_p = max(nu, 0.0)
    q2 = np.sqrt(M * N_u)
    sqrt_d = np.sqrt(delta)
    tau = 2.0 / (kappa + np.sqrt(kappa * kappa + 16.0 * mu * q2 / sqrt_d))
    y_tau = np.sqrt(4.0 * q2 * np.sinh(tau) ** 2 + delta)
    y0 = y_tau + max(20.0, 2.0 * (nu_p + kappa) + 1.0) / mu
    t0 = np.arcsinh(np.sqrt((y0 * y0 - delta) / (4.0 * q2)))

    def e_and_slope(t):
        sh = np.sinh(t)
        y = np.sqrt(4.0 * q2 * sh * sh + delta)
        dy = 4.0 * q2 * sh * np.sqrt(1.0 + sh * sh) / y
        e = nu_p * np.log(y / sqrt_d) - mu * (y - y_tau) + kappa * (t + tau)
        return e, (nu_p / y - mu) * dy + kappa

    target = np.log(-tau * e_and_slope(t0)[1]) + _HEIGHT_TAIL
    t = t0
    for _ in range(3):
        e, slope = e_and_slope(t)
        t = np.maximum(t0, t - (e - target) / slope)
    x_star = 0.25 * np.log(N_u / M)
    return x_star - t, x_star + t


def j_gamma_quadrature(gamma, u_range, cfg, mu, nu):
    """The reduced error-term integral

        J = 2^n (pi/2mu)^((n-1)/2) *
            int (sqrt f)^nu K_nu(mu sqrt f) s1^(nu+rho0) r^(nu+rho0-n) dr du

    over the direction window ``u_range``, computed in log scale so the
    exp(-mu sqrt(delta_min)) size survives large mu: the window integrals
    to a relative 1e-7, the height integrals inside them to 1e-8.  Real
    spectral parameter only (the integral is complex otherwise).

    Each height integral runs over its own range in log r, centred on the
    minimum of f and ended where a proven bound on its relative tail is
    1e-16 (``_height_cut``).

    Convergence needs both M(gamma) > 0 and inf_u N_u(gamma) > 0 on the
    window -- the positivity a good double-coset representative enjoys.
    Word-ball representatives of cusp-type classes violate it (N_u vanishes
    where the translated geodesic becomes asymptotic to the cycle, and the
    height factor s1 can blow up at the same spot); such inputs are
    returned with ``degenerate`` set instead of a value.
    """
    _checks.positive(mu=mu)
    _checks.finite(nu=nu)
    gamma = require_lorentz(gamma)
    if check_membership(gamma, "G0", cfg, tol=TOL_G0):
        raise ValueError("gamma lies in the cycle subgroup; excluded by precondition")
    nu_c = complex(nu)
    if abs(nu_c.imag) > REAL_ORDER_IM:
        raise ValueError(f"j_gamma_quadrature needs a real spectral parameter nu, got {nu!r}")
    nu_r = float(nu_c.real)
    if len(u_range) != cfg.n - 1:
        raise ValueError("u_range must give one interval per cycle direction")

    n, rho0 = cfg.n, cfg.rho0
    u_range = tuple((float(lo), float(hi)) for lo, hi in u_range)
    # checked before the memoised scan, so that no bad window is stored
    if not all(-math.inf < lo < hi < math.inf for lo, hi in u_range):
        raise ValueError(f"u_range needs finite intervals with lo < hi, got {u_range}")
    prep, delta_min, n_min = _window_scan(gamma.tobytes(), gamma.shape, u_range, cfg)
    if prep.M < 1e-12 or n_min < 1e-8:
        return JGammaResult(log_value=np.nan, value=np.nan, delta_min=delta_min,
                            degenerate=True, n_min=n_min)
    sqrt_dmin = np.sqrt(delta_min)
    z_hi = mu * sqrt_dmin + _EXP_CUT + 120.0
    table = _k_table(nu_r, math.floor(math.log2(mu * sqrt_dmin * 0.999)),
                     math.ceil(math.log2(z_hi)))

    def inner(points):
        # the r-integrals at every window point of a wave, one family
        node = prep.invariants_batch(points)
        if np.any(node.N_u < 0.25 * n_min):
            raise RuntimeError("window scan missed an N_u degeneration; "
                               "shrink the window or refine the scan")
        x_lo, x_hi = _height_cut(mu, nu_r, rho0, node.M, node.N_u, node.delta)

        def integrand(x, k):
            # f(r) and s1(r) of each value's own window point
            r = np.exp(x)
            sf = np.sqrt(node.f(r, k))
            z = mu * sf
            # the log-integrand summed term by term in one buffer
            out = np.log(sf)
            out *= nu_r
            out += table.log_k(np.minimum(z, z_hi))
            out += mu * sqrt_dmin
            out -= np.maximum(z - z_hi, 0.0)
            s1 = np.log(node.s1(r, k))
            s1 *= nu_r + rho0
            out += s1
            out += (nu_r + rho0 - n + 1.0) * x
            return _exp_in_place(out)

        return quad_family(integrand, x_lo, x_hi, rel_tol=1e-8).value

    val = _nested_quad(inner, u_range, 1e-7)[0]
    pref = 2.0 ** n * (np.pi / (2.0 * mu)) ** ((n - 1) / 2.0)
    log_value = float(np.log(pref) + np.log(val) - mu * sqrt_dmin)
    return JGammaResult(log_value=log_value,
                        value=float(np.exp(log_value)) if log_value > -700 else 0.0,
                        delta_min=float(delta_min), degenerate=False,
                        n_min=float(n_min))


def _nested_quad(f, ranges, rel_tol, heads=np.zeros((1, 0))):
    """Iterated quadrature over a product of intervals, one family per wave.

    ``f`` maps an (m, len(heads[0]) + len(ranges)) array of points to m
    values.  Returns, for each row of ``heads``, the integral of f over the
    points extending that row by a point of the product; every level
    integrates the next coordinate at all nodes of the level above at once.
    """
    (lo, hi), rest = ranges[0], ranges[1:]

    def g(u, k):
        points = np.column_stack([heads[k], u])
        return _nested_quad(f, rest, rel_tol, points) if rest else f(points)

    return quad_family(g, lo, np.full(len(heads), hi), rel_tol=rel_tol).value


def j_gamma_decay_check(results_by_mu, slack_degree):
    """Monotonicity of log J(mu) + mu sqrt(delta_min)/2 along increasing mu,
    up to additive slack slack_degree * log(mu ratio) absorbing the
    polynomial prefactor.  Returns (statistics, ok)."""
    mus = sorted(results_by_mu)
    stats = [results_by_mu[m].log_value + 0.5 * m * np.sqrt(results_by_mu[m].delta_min)
             for m in mus]
    ok = all(
        stats[k + 1] <= stats[k] + slack_degree * np.log(mus[k + 1] / mus[k]) + 1e-9
        for k in range(len(mus) - 1)
    )
    return stats, ok


# ---------------------------------------------------------------------------
# rescaled limit shape


@dataclass(frozen=True)
class LimitShapeRow:
    mu: float
    value_log: float
    sign: int
    envelope_log: float

    @property
    def value(self):
        return self.sign * float(np.exp(self.value_log))

    @property
    def envelope(self):
        return float(np.exp(self.envelope_log))


def rescaled_limit_shape(cfg, mu_grid, nu, box):
    """exp(mu)-rescaled main term along a mu sweep, in log-sign form.

    The period-sum normalization of the main term is
    2^{-d} (2mu/pi)^{(d-1)/2} Sigma0; multiplying by
    e^mu (pi/2mu)^{(d-n-1)/2} collapses to

        V(mu) = 2^{n-d} I_nu * sqrt(2mu/pi) e^mu K_nubar(mu)  ->  2^{n-d} I_nu,

    so the sweep plateaus at a nonzero constant.  The error envelope is the
    rescaled O(e^-mu mu^-(n+1)/2) error bound, (pi/2)^((d-n-1)/2) mu^(-d/2).
    """
    mu_grid = [float(m) for m in mu_grid]
    _checks.positive(mu_grid=mu_grid)
    if not mu_grid or any(b <= a for a, b in zip(mu_grid, mu_grid[1:])):
        raise ValueError(f"mu_grid must be nonempty and strictly increasing, got {mu_grid!r}")
    if mu_grid[-1] > SWEEP_MU_CAP:
        raise ValueError(f"mu_grid capped at {SWEEP_MU_CAP:g}, got {mu_grid[-1]!r}")
    d, n = cfg.d, cfg.n
    nu_bar = complex(nu).conjugate()
    i_nu = box.i_nu(nu)
    order = nu_bar if abs(nu_bar.imag) > REAL_ORDER_IM else nu_bar.real
    rows = []
    for mu, kscaled in zip(mu_grid, np.real(bessel_k_scaled(order, mu_grid)).tolist()):
        sign = int(np.sign(kscaled)) or 1
        value_log = ((n - d) * np.log(2.0) + np.log(abs(i_nu))
                     + 0.5 * np.log(2.0 * mu / np.pi) + np.log(abs(kscaled)))
        envelope_log = (0.5 * (d - n - 1) * np.log(np.pi / (2.0 * mu))
                        - 0.5 * (n + 1) * np.log(mu))
        rows.append(LimitShapeRow(mu=mu, value_log=float(value_log), sign=sign,
                                  envelope_log=float(envelope_log)))
    return rows


def plateau_gap(rows, mu_lo=40.0, mu_hi=60.0):
    """Relative change of the rescaled value between two sweep points."""
    by_mu = {row.mu: row for row in rows}
    a, b = by_mu[mu_lo], by_mu[mu_hi]
    ratio = a.sign * b.sign * np.exp(a.value_log - b.value_log)
    return float(abs(1.0 - ratio))


def envelope_fraction(row):
    """Error envelope as a fraction of the rescaled main term."""
    return float(np.exp(row.envelope_log - row.value_log))

