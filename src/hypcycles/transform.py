"""The test function exp(-mu cosh x), K-Bessel machinery, and the spherical
transform that turns it into 2^d (pi/2mu)^((d-1)/2) K_nu(mu).

K_nu of real, imaginary and complex order comes from one integral representation,

    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,      x > 0,

evaluated by adaptive Gauss-Kronrod panels on [0, T] with T chosen so the
integrand has underflowed at the cut (so are the integral identities; the
transform quadrature's outer and inner integrals stop at proven relative
tail bounds instead).  The scaled imaginary-order evaluator
``bessel_k_imag_scaled``, where cosh(i r t) would cancel, integrates
e^{ip(w)}, p(w) = x sinh w - r w, on its steepest-descent path through the
saddle instead, where the integrand does not oscillate.  Half-integer closed forms and the classical
integral identities (Gradshteyn-Ryzhik 3.471.9, 6.726.4, 6.592.12)
serve as cross-checks, each computed against direct quadrature in a
variable whose integrand decays doubly exponentially (Takahasi and Mori,
Publ. RIMS 9, 1974): x = e^y for 3.471.9, x = sinh(y)/a for 6.726.4, and
x = 1 + tau^2 with tau = exp((pi/2) sinh t) for 6.592.12.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import _checks
from .quadrature import quad_family, quad_gk

MAX_REAL_ORDER = 50.0
REAL_ORDER_IM = 1e-14      # the largest |Im| of a real order (``_real_order``)
_EXP_CUT = 770.0           # exp(-770) underflows with margin
# relative accuracy of the adaptive Bessel evaluators and of the closed form
BESSEL_REL_TOL = 1e-9
# relative accuracy of each side's quadrature in the integral identities
GR_REL_TOL = 1e-10
# largest dimension the nested transform quadrature accepts (cost guard)
MAX_QUAD_DIM = 6
# the transform quadrature's inner Gaussian integrals: cut at z s^2 = _INNER_CUT
# (tail bound in selberg_transform_quadrature), relative tolerance never below
# _INNER_TOL_FLOOR
_INNER_CUT = 40.0
_INNER_TOL_FLOOR = 1e-13
# its outer range: cut where the relative tail bound is exp(-_OUTER_CUT), 1% of
# _INNER_TOL_FLOOR (bound in selberg_transform_quadrature)
_OUTER_CUT = math.log(1e2 / _INNER_TOL_FLOOR)


# ---------------------------------------------------------------------------
# the test function


def phi_mu(mu, x):
    """The radial test function exp(-mu cosh x) on distances x >= 0."""
    _checks.positive(mu=mu)
    _checks.nonnegative(x=x)
    out = np.exp(-mu * np.cosh(np.asarray(x, dtype=float)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# modified Bessel function of the second kind, arbitrary order


def _real_order(order, name):
    """order as a float if an order of K with |Im| <= REAL_ORDER_IM, else refused by name."""
    _checks.finite(**{name: order})
    if abs(complex(order).imag) > REAL_ORDER_IM:
        raise ValueError(f"{name} must be real (|Im| <= {REAL_ORDER_IM:g}), got {complex(order)!r}")
    _normalize_order(order, name)
    return complex(order).real


def _typed(value, like):
    """Complex for a complex-typed ``like`` (0.3+0j too), else real; a scalar as a Python number."""
    value = np.asarray(value)
    value = value.astype(complex, copy=False) if np.iscomplexobj(like) else value.real
    return value if value.ndim else value.item()


def _normalize_order(order, name="order"):
    """The one rule for an order of K: finite with |Re| <= MAX_REAL_ORDER, else refused
    by name; returned as a complex with Re >= 0, as K is even in its order, so that
    cosh factors stay tame."""
    _checks.finite(**{name: order})
    nu = complex(order)
    if abs(nu.real) > MAX_REAL_ORDER:
        raise ValueError(f"{name} must be an order with |Re| <= {MAX_REAL_ORDER:g}, got {nu!r}")
    return -nu if nu.real < 0 else nu


def _cosh_cutoff(x, a):
    """Smallest T with x*(cosh T - 1) - a*T beyond the underflow target _EXP_CUT."""
    T = float(np.arccosh(1.0 + (_EXP_CUT + 10.0) / x))
    for _ in range(6):
        T = float(np.arccosh(1.0 + (_EXP_CUT + 10.0 + max(a, 0.0) * T) / x))
    return T + 0.5


def _exp_in_place(a):
    """exp of the float array a, written into a.  Where a <= -_EXP_CUT, exp
    is 0.0, which numpy's exp reaches only by a slow path, so those entries
    are set to 0.0 directly; the bytes are those of np.exp(a)."""
    np.exp(a, out=a, where=a > -_EXP_CUT)
    # the entries skipped are still negative, and no exp is
    return np.maximum(a, 0.0, out=a)


def _scaled_integrand(t, x, nu):
    """exp(x) * exp(-x cosh t) cosh(nu t), overflow-safe for Re(nu) >= 0."""
    a, b = nu.real, nu.imag
    # the operations of the out-of-place formula, in its order, in one buffer
    # of the broadcast shape (a 0-d array, since out= refuses a numpy scalar)
    expo = np.asarray(x * (1.0 - np.cosh(t)))
    expo += a * t
    _exp_in_place(expo)
    expo *= 0.5
    if b == 0.0:
        expo *= 1.0 + np.exp(-2.0 * a * t)
        return expo[()]
    # the product is the one complex array of the broadcast shape
    return expo * (np.exp(1j * b * t) + np.exp(-2.0 * a * t - 1j * b * t))


def bessel_k_scaled(order, x):
    """exp(x) * K_order(x) by quadrature to BESSEL_REL_TOL; safe for large x.

    A complex-typed order gives a complex result, any other a real one.

    An array x gives an array, its arguments integrated as one family, each
    refined exactly as it would be alone.
    """
    _checks.positive_or_inf(x=x)
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1)
    nu = _normalize_order(order)
    T = [_cosh_cutoff(v, nu.real) for v in xs.tolist()]
    val = quad_family(lambda t, k: _scaled_integrand(t, xs[k], nu), 0.0, T,
                      rel_tol=BESSEL_REL_TOL).value
    # an order with zero imaginary part integrates in reals, complex-typed or not
    return _typed(val.reshape(x.shape), order)


def bessel_k(order, x):
    """K_order(x) to BESSEL_REL_TOL for real, imaginary or complex order.

    Returns a complex number when the order is complex-typed (its imaginary
    part measures how well reality survives for imaginary order), a float
    otherwise, and an array of them for an array x.
    """
    return _typed(bessel_k_scaled(order, x) * np.exp(-x), order)


def bessel_k_asymptotic(x):
    """Leading large-argument behavior sqrt(pi/2x) e^{-x} of K_nu(x), any nu.

    This is the first term of the Hankel expansion (DLMF 10.40.2) only, so
    K_nu(x) / bessel_k_asymptotic(x) - 1 is (4 nu^2 - 1)/(8x) + O(x^-2),
    e.g. -1.25% for nu = i at x = 50.
    """
    _checks.positive(x=x)
    return float(np.sqrt(np.pi / (2.0 * x)) * np.exp(-x))


def bessel_k_imag_scaled(r, x):
    """exp(pi r/2) K_{ir}(x), r >= 0, x > 0, on the steepest-descent path of
    p(w) = x sinh w - r w (Gil, Segura and Temme, J. Comput. Phys. 175, 2002).

    The value is Re int e^{ip(w)} dw from the imaginary axis (adding to Im
    alone) to +inf + i pi/2.  The path Re p = P through the saddle w_s
    (x cosh w_s = r; i acos(r/x), with P = 0 and Re w_s = 0, for r <= x) is
    w = t + i y, y = 2 sigma arcsin sqrt(u/2), u = D/(x sinh t) with
    D = x sinh t - r t - P >= 0, so e^{ip} = e^{iP} e^{-Im p}; D and D' are
    formed in t - Re w_s without cancellation.  Members: H = [0, t0],
    t0 = -P/r, on y = -pi/2 (u clipped at 1; Re p - P = -P - r t),
    L = [t0, w_s] (sigma = -1) and U = [w_s, T] (sigma = +1) for r > x;
    U = [0, T] for r <= x.  Values carry e^m, m = Im p(w_s).

    Im p rises from the saddle (p' vanishes nowhere else on the path) by
    dIm p = |p'||dw| >= (x sinh t - r) dt, so the tail past T is at most
    B(T) = e^{m - Im p(T)}/(x sinh T - r), and T + log(B/b)/(x sinh T - r)
    has B <= b.  floor = h e^{m - Im p(w_s + h)} <= Re(I_L + I_U), and
    |I_H| <= t0 e^{x cosh t0 - pi r/2}.  At b = 1e-3 BESSEL_REL_TOL floor, H
    is dropped and T set; with abs_tol 10 b the error is, by the estimates,
    at most 1.04 BESSEL_REL_TOL e^{-m} int |e^{ip}||dw|, the path's mass
    (K_{ir} is far smaller near its zeros).  |P| > 4e6 is refused, as a
    rounding of r moves the value by 1e-16 |P| of that mass.
    """
    # x = inf gives the limit 0
    _checks.positive_or_inf(x=x)
    _checks.nonnegative(r=r)
    s, k = math.sqrt(abs(r - x)) * math.sqrt(r + x), max(x - r, 0.0)
    ws, m = (math.asinh(s / x), 0.0) if r > x else (0.0, s - r * math.acos(r / x))
    if m > 800.0:  # e^-m times a mass below 2 for r <= x: 0 in doubles, x = inf included
        return 0.0
    # s - r ws, by the series of x (sinh ws - ws cosh ws) for small ws (0 for r <= x)
    P = s - r * ws if ws >= 0.1 else -x * ws ** 3 * (1 / 3 + ws ** 2 * (1 / 30 + ws ** 2 * (
        1 / 840 + ws ** 2 / 45360)))
    if P < -4e6:
        raise ValueError(f"r = {r!r} is too large against x = {x!r} for double precision")
    t0 = -P / r if r > x else 0.0

    def im_p_up(t):
        # Im p - m on U, in scalars: only the bounds read it, away from u = 0
        c = min((P + r * t) / (x * math.sinh(t)), 1.0)
        return x * math.cosh(t) * math.sqrt(1.0 - c * c) - r * math.acos(c) - m

    h = 1.0 / max(1.0, math.sqrt(s), (x / 6.0) ** (1 / 3))
    # x sinh T > r, as m + pi r/2 >= sqrt(x^2 + r^2)
    T = max(math.acosh((m + 0.5 * math.pi * r + 20.0) / x), ws + h)
    floor, slope = h * math.exp(-im_p_up(ws + h)), x * math.sinh(T) - r
    b = 1e-3 * BESSEL_REL_TOL * floor
    T += max(-im_p_up(T) - math.log(b * slope), 0.0) / slope
    j = 2 if r <= x else int(t0 * math.exp(x * math.cosh(t0) - 0.5 * math.pi * r) < b)

    def path(t, sg):
        d = t - ws
        d2 = d * d
        sinh_d = np.where(d2 < 0.01, d * d2 * (1 / 6 + d2 * (1 / 120 + d2 * (
            1 / 5040 + d2 * (1 / 362880 + d2 / 39916800)))), np.sinh(d) - d)
        hd = np.sinh(0.5 * d)
        sh, ch = x * np.sinh(t), x * np.cosh(t)
        D = 2.0 * x * math.sinh(ws) * hd * hd + x * math.cosh(ws) * sinh_d + k * d
        # on H, u = 1 by t0's definition, where D in t - w_s may cancel badly
        u = (np.minimum(D, sh) if j else np.where(t < t0, sh, np.minimum(D, sh))) / sh
        root = np.sqrt(u * (2.0 - u))
        A = 2.0 * x * np.sinh(0.5 * (t + ws)) * hd + k
        dy = np.divide(sg * (A - u * ch), sh * root, out=np.zeros_like(t), where=u < 1.0)
        im_p = sg * (ch * root - 2.0 * r * np.arcsin(np.sqrt(0.5 * u)))
        out = np.exp(m - im_p) * (1.0 + 1j * dy)
        return out * np.exp(1j * np.maximum(-P - r * t, 0.0)) if j == 0 else out

    val = quad_family(lambda t, i: path(t, np.array([-1.0, -1.0, 1.0])[j:][i]), [0.0, t0, ws][j:],
                      [t0, ws, T][j:], rel_tol=BESSEL_REL_TOL, abs_tol=10.0 * b).value
    return float((np.exp(1j * P - m) * val.sum()).real)


# Fixed composite Gauss-Legendre rule on a geometric panel ladder: evaluates
# K at many arguments in one shot, for use inside vectorized integrands.
# The 15-point rule on [-1, 1], bit for bit numpy.polynomial.legendre.leggauss(15)
# (which symmetrises its output), held as a literal so that importing the
# package loads no numpy.polynomial; descending nodes down to 0 and their weights.
_GL_NODES_HALF = np.array([
    0.98799251802048538,
    0.93727339240070584,
    0.84820658341042721,
    0.72441773136017007,
    0.57097217260853883,
    0.39415134707756339,
    0.20119409399743451,
    0.0,
])
_GL_WEIGHTS_HALF = np.array([
    0.030753241996117203,
    0.070366047488108402,
    0.10715922046717141,
    0.13957067792615444,
    0.16626920581699398,
    0.18616100001556221,
    0.19843148532711161,
    0.20257824192556129,
])
_GL_NODES = np.concatenate([-_GL_NODES_HALF[:-1], _GL_NODES_HALF[::-1]])       # ascending
_GL_WEIGHTS = np.concatenate([_GL_WEIGHTS_HALF[:-1], _GL_WEIGHTS_HALF[::-1]])


def bessel_k_scaled_batch(order, z):
    """exp(z) K_order(z) for an array of z > 0, one shared t-grid.

    Panels grow geometrically from a step resolving the sharpest Gaussian
    scale 1/sqrt(max z) out to the underflow cut of the smallest z, so a
    single rule serves the whole batch; accuracy is pinned against the
    adaptive evaluator in the test suite.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _checks.positive(z=z)
    nu = _normalize_order(order)
    if not z.size:      # no smallest and largest z to span with a grid
        return _typed(np.zeros(0), order)
    z_lo, z_hi = float(z.min()), float(z.max())
    T = _cosh_cutoff(z_lo, nu.real)
    h0 = min(0.05, 0.3 / np.sqrt(z_hi))
    edges = [0.0, h0]
    while edges[-1] < T:
        h0 *= 1.4
        edges.append(min(edges[-1] + h0, T))
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    out = _scaled_integrand(t[None, :], z[:, None], nu) @ w
    return _typed(out, order)


def _hermite_cells(x, y, s):
    """Coefficients c (4, n-1) of the cubic Hermite interpolant of values y
    and slopes s at the nodes x: on cell i it is sum_k c[k, i] (t - x[i])^(3-k)."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class KScaledInterpolator:
    """Cubic log-log interpolant of exp(z) K_nu(z) for real nu on [z_lo, z_hi].

    At 500 log-spaced nodes the batch evaluator gives y = log(exp(z) K_nu(z))
    and, from the recurrence K_nu' = -K_(nu-1) - (nu/z) K_nu (DLMF 10.29.2,
    with nu >= 0 since K is even in its order), its exact slope in x = log z,

        dy/dx = z - z K_(nu-1)(z) / K_nu(z) - nu,

    so each cell is the cubic Hermite interpolant of its own two nodes
    (``_hermite_cells``).  The table is self-audited against the adaptive
    evaluator at off-grid points spread over [z_lo, z_hi] and raises if the
    audit misses a relative 1e-8.  A query finds its cell on the uniform
    log grid by one division and evaluates the cubic by Horner's rule; an
    argument outside [z_lo, z_hi] raises ValueError instead of extrapolating.
    """

    def __init__(self, order, z_lo, z_hi):
        self.order = abs(_real_order(order, "order"))
        _checks.positive(z_lo=z_lo)
        _checks.window(z_range=((z_lo, z_hi),))
        self.z_lo, self.z_hi = float(z_lo), float(z_hi)
        n = 500
        logz = np.linspace(np.log(z_lo), np.log(z_hi), n)
        z = np.exp(logz)
        vals = bessel_k_scaled_batch(self.order, z)
        # order nu - 1 (nu >= 0), not nu + 1, which would pass MAX_REAL_ORDER at nu = 50
        slopes = z - z * bessel_k_scaled_batch(self.order - 1.0, z) / vals - self.order
        self._nodes = logz
        self._step = (logz[-1] - logz[0]) / (n - 1)
        # one contiguous row per cell, so a query gathers its cubic in one take
        self._cells = np.ascontiguousarray(_hermite_cells(logz, np.log(vals), slopes).T)
        # six probes, a quarter of the way into cells spread over the whole
        # table, the first and the last included: slopes off by the same c at
        # both ends of a cell move its cubic by h c tau (1 - tau) (1 - 2 tau),
        # which vanishes at the midpoint tau = 1/2 but not at tau = 1/4
        cells = np.linspace(0, n - 2, 6).round().astype(int)
        probe = np.exp(0.75 * logz[cells] + 0.25 * logz[cells + 1])
        ref = bessel_k_scaled(self.order, probe)
        if np.any(np.abs(self(probe) - ref) > 1e-8 * np.abs(ref)):
            raise RuntimeError("Bessel interpolation table failed its self-audit")

    def _log_scaled(self, z):
        """The cubic of log(exp(z) K_nu(z)) at z, by Horner's rule."""
        z = np.asarray(z, dtype=float)
        # a NaN fails the comparison, so it raises too
        if z.size and not (z.min() >= self.z_lo and z.max() <= self.z_hi):
            raise ValueError(f"argument outside the table [{self.z_lo}, {self.z_hi}]")
        x = np.log(z)
        cell = np.floor((x - self._nodes[0]) / self._step).astype(np.intp)
        # minimum/maximum, not np.clip, which builds two np.iinfo per call on integers
        cell = np.maximum(np.minimum(cell, len(self._nodes) - 2), 0)
        t = x - self._nodes[cell]
        # take gathers whole rows several times faster than fancy indexing
        c = np.take(self._cells, cell, axis=0)
        return ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]

    def __call__(self, z):
        return np.exp(self._log_scaled(z))

    def log_k(self, z):
        """log K_nu(z), vectorized."""
        return self._log_scaled(z) - np.asarray(z, dtype=float)


# ---------------------------------------------------------------------------
# Gradshteyn-Ryzhik identities, each side computed independently


def _gap(closed, other):
    """The gap of a closed form from its oracle, |closed - other| / max(|closed|,
    1e-300): inf where the closed form is 0.0, as two underflowed values compare
    nothing, and NaN where either side is."""
    return math.inf if closed == 0.0 else float(abs(closed - other) / max(abs(closed), 1e-300))


def gr_identity_3_471_9(alpha, beta, order):
    """int_0^inf x^(nu-1) exp(-alpha/x - beta x) dx  vs  2 (a/b)^(nu/2) K_nu(2 sqrt(ab)).

    Both sides, each to GR_REL_TOL, returned with the closed right side's gap.
    """
    _checks.positive(alpha=alpha, beta=beta)
    _normalize_order(order)
    nu = complex(order)
    # substitute x = e^y; doubly exponential decay at both ends
    y_hi = np.log((_EXP_CUT + 40.0) / beta + 1.0)
    y_lo = -np.log((_EXP_CUT + 40.0) / alpha + 1.0)
    for _ in range(4):
        y_hi = np.log((_EXP_CUT + 40.0 + abs(nu.real) * abs(y_hi)) / beta + 1.0)
        y_lo = -np.log((_EXP_CUT + 40.0 + abs(nu.real) * abs(y_lo)) / alpha + 1.0)

    def f(y):
        return np.exp(nu * y - alpha * np.exp(-y) - beta * np.exp(y))

    res = quad_gk(f, y_lo - 0.5, y_hi + 0.5, rel_tol=GR_REL_TOL)
    lhs = res.value
    rhs = 2.0 * (alpha / beta) ** (nu / 2.0) * bessel_k(complex(nu), 2.0 * np.sqrt(alpha * beta))
    return _typed(lhs, order), _typed(rhs, order), _gap(rhs, lhs)


def gr_identity_6_726_4(a, b, c, order, sign=+1):
    """int_0^inf (x^2+b^2)^(-s nu/2) K_nu(a sqrt(x^2+b^2)) cos(cx) dx  vs

    sqrt(pi/2) a^(-s nu) b^(1/2 - s nu) (a^2+c^2)^(s nu/2 - 1/4)
                                        K_(s nu - 1/2)(b sqrt(a^2+c^2))

    where s = sign picks the upper (+1) or lower (-1) row; integral to GR_REL_TOL.
    With c b large the integral is exponentially small against its O(1)
    oscillating integrand, and that tolerance can be out of reach: the
    quadrature then raises at its panel cap.
    """
    _checks.positive(a=a, b=b)
    _checks.finite(c=c)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _normalize_order(order)
    nu = complex(order)
    s = float(sign)
    _normalize_order(s * nu - 0.5)     # the closed side's order
    # power-factor growth is at most polynomial against exp(-a x) decay
    X = (_EXP_CUT + 60.0 + (abs(nu.real) + 1.0) * 20.0) / a + b + 1.0

    # substitute x = sinh(y)/a: the exp(-a x) decay becomes doubly exponential
    def f(y):
        x = np.sinh(y) / a
        z = a * np.sqrt(x * x + b * b)
        kv = bessel_k_scaled_batch(complex(nu), z) * np.exp(-z)
        return (x * x + b * b) ** (-s * nu / 2.0) * kv * np.cos(c * x) * np.cosh(y) / a

    res = quad_gk(f, 0.0, np.arcsinh(a * X), rel_tol=GR_REL_TOL)
    lhs = res.value
    w = b * np.sqrt(a * a + c * c)
    rhs = (np.sqrt(np.pi / 2.0) * a ** (-s * nu) * b ** (0.5 - s * nu)
           * (a * a + c * c) ** (s * nu / 2.0 - 0.25)
           * bessel_k(complex(s * nu - 0.5), w))
    return _typed(lhs, order), _typed(rhs, order), _gap(rhs, lhs)


def gr_identity_6_592_12(a, b, c):
    """int_1^inf x^(-b/2) (x-1)^(c-1) K_z(a sqrt(x)) dx  vs  2^c Gamma(c) a^(-c) K_(b-c)(a).

    The identity couples the Bessel order to the power: it holds with
    z = -b (equivalently z = b, K being even in its order), so the order is
    not an argument, and b is real.  The integral is taken to GR_REL_TOL.
    """
    _checks.positive(a=a, c=c)
    z_order = -_real_order(b, "b")
    _normalize_order(b - c, "b - c")     # the closed side's order
    # substitute x = 1 + tau^2 to absorb the endpoint power
    p = abs(2.0 * c - 1.0) + abs(b) + 2.0
    tau_max = (_EXP_CUT + 40.0) / a + 1.0
    for _ in range(4):
        tau_max = (_EXP_CUT + 40.0 + p * np.log1p(tau_max)) / a + 1.0
    # then tau = exp((pi/2) sinh t), so that both ends decay doubly
    # exponentially.  Below t_lo, tau^(2c) < exp(-_EXP_CUT - 40): the part cut
    # off is below exp(-810)/c times the sup of x^(-b/2) K(a sqrt x) on [1, 2],
    # and the integral over tau in [0, 1] is above 1/c times its inf there
    t_hi = np.arcsinh(np.log(tau_max) / (np.pi / 2.0))
    t_lo = -np.arcsinh((_EXP_CUT + 40.0) / (2.0 * c) / (np.pi / 2.0))

    def f(t):
        # every power of tau from log tau, since tau itself underflows near t_lo
        log_tau = (np.pi / 2.0) * np.sinh(t)
        x = 1.0 + np.exp(2.0 * log_tau)
        zarg = a * np.sqrt(x)
        kv = bessel_k_scaled_batch(z_order, zarg) * np.exp(-zarg)
        return np.pi * np.cosh(t) * np.exp(2.0 * c * log_tau) * x ** (-b / 2.0) * kv

    res = quad_gk(f, t_lo, t_hi, rel_tol=GR_REL_TOL)
    lhs = res.value
    rhs = 2.0 ** c * math.gamma(c) * a ** (-c) * bessel_k(b - c, a)
    return _typed(lhs, b), _typed(rhs, b), _gap(rhs, lhs)


# ---------------------------------------------------------------------------
# the spherical transform of exp(-mu cosh x)


def _check_transform_args(d, mu, nu):
    """Refuse a bad d, mu or nu before any work."""
    _checks.positive(mu=mu)
    _normalize_order(nu, "nu")
    _checks.integer(d=d, at_least=2)


def selberg_transform_closed(d, mu, nu):
    """Closed form 2^d (pi/2mu)^((d-1)/2) K_nu(mu), K to BESSEL_REL_TOL."""
    _check_transform_args(d, mu, nu)
    pref = 2.0 ** d * (np.pi / (2.0 * mu)) ** ((d - 1) / 2.0)
    return _typed(pref * bessel_k(nu, mu), nu)


def _outer_cut(mu, a):
    """The smallest X, to within a last Newton step (a relative 1e-7), with
    selberg_transform_quadrature's tail bound B(X) <= exp(-_OUTER_CUT)."""
    a = abs(a)
    # 1 + 1/mu rounds to 1 from mu = 2^53 on; the half-angle form keeps t > 0 there
    t = math.acosh(1.0 + 1.0 / mu) or 2.0 * math.asinh(math.sqrt(0.5 / mu))
    # log B falls strictly from +inf at sinh X = a/mu: step right until it is
    # below the target, then take Newton steps down for as long as it stays so
    lo = math.asinh(a / mu)
    X, last = lo + 1.0, None
    while True:
        slope = mu * math.sinh(X) - a
        gap = mu * (math.cosh(X) - 1.0) - a * X - 1.0 - a * t + math.log(t * slope) - _OUTER_CUT
        if gap < 0.0:
            if last is not None:
                return last
            X += 1.0
            continue
        step = gap / (slope + mu * math.cosh(X) / slope)
        if step <= 1e-12 * X:
            return X
        # halfway to lo at most, so that mu sinh X - a stays positive
        last, X = X, max(X - step, 0.5 * (lo + X))


def selberg_transform_quadrature(d, mu, nu, rel_tol=1e-9):
    """The transform by direct numerical integration of

        int_{R^(d-1)} int_0^inf exp[-mu((|u|^2+1)/2 r + (1/2)/r)] r^(nu+rho-1) dr du

    after reducing the u-integral to its radial part (d <= MAX_QUAD_DIM).
    Agreement with the closed form is the primary oracle pair of this module.

    The radial part int_0^inf s^(d-2) exp(-z s^2) ds is itself a quadrature,
    cut at z s^2 = _INNER_CUT = 40, where the relative tail
    Q((d-1)/2, 40) = Gamma((d-1)/2, 40)/Gamma((d-1)/2) is at most 8.4e-16
    for d <= MAX_QUAD_DIM: under 1% of the inner tolerance, which is never
    below _INNER_TOL_FLOOR = 1e-13.

    In x = log r the outer integrand g has modulus C exp(-h), h(x) = mu cosh x
    - a x with a = Re nu (the radial part's z^(-rho) cancels exp(rho x)).  As
    h is convex, h(+-x) >= mu cosh X - |a| X + (mu sinh X - |a|)(x - X) for
    x >= X; and h <= mu + 1 + |a| t on [-t, t], t = arccosh(1 + 1/mu).  So

        int_{|x|>X} |g| / int |g|  <=  B(X) = exp(|a| X - mu (cosh X - 1))
                                          * exp(1 + |a| t) / (t (mu sinh X - |a|)),

    and the outer range is [-X, X] with ``_outer_cut``'s X, the smallest
    X > asinh(|a|/mu) with B(X) <= exp(-_OUTER_CUT) = 1e-2 _INNER_TOL_FLOOR.
    A mu so small that the inner range's end R = sqrt(_INNER_CUT/z) at x = -X,
    raised to the power max(2, d-1) that bounds the radial part, is not a
    finite float is refused before any quadrature: d = 2 and 3 work down to
    mu = 1e-152, d = 6 to about 1e-60.
    Where Im nu makes |int g| smaller by cancellation, the cut still moves
    the value by at most 1e-15 int |g|, a few roundings of any quadrature of
    g; but the error estimate misses those roundings, so a value can miss
    rel_tol silently: 3.4e-10 from mpmath at (d, mu, nu) = (2, 0.01, 8i) and
    rel_tol 1e-10, where |h| is about 1e-6 int |g|; at 12i it hits the panel cap.
    """
    _check_transform_args(d, mu, nu)
    if d > MAX_QUAD_DIM:
        raise ValueError(f"unsupported dimension d={d} (quadrature cost guard, d <= {MAX_QUAD_DIM})")
    nu_c = complex(nu)
    rho = (d - 1) / 2.0
    sphere = 2.0 * np.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    # R is largest at x = -X, where z = mu e^x / 2 is least.  No cut is sought for a
    # mu refused at x = 0 already (where 1 / mu overflows, _outer_cut never returns),
    # and one whose cosh X overflows is refused
    power, log_max = max(1.0, 0.5 * (d - 1)), math.log(sys.float_info.max)
    log_cut = math.log(2.0 * _INNER_CUT / mu)
    try:
        X = _outer_cut(mu, nu_c.real) if power * log_cut < log_max else math.inf
    except OverflowError:
        X = math.inf
    if power * (log_cut + X) >= log_max:
        raise ValueError(f"mu must be large enough that the inner Gaussian integrals of "
                         f"d = {d} stay finite on the outer range, got {mu!r}")
    inner_tol = max(rel_tol * 1e-2, _INNER_TOL_FLOOR)

    def outer(x):
        # the inner Gaussian integrals at every node of the wave, one family
        r = np.exp(x)
        z = 0.5 * mu * r
        rad_hi = np.sqrt(_INNER_CUT / z)
        radial = quad_family(lambda s, k: s ** (d - 2) * np.exp(-z[k] * s * s),
                             0.0, rad_hi, rel_tol=inner_tol).value
        return radial * np.exp(-0.5 * mu * (r + 1.0 / r) + (nu_c + rho) * x)

    return _typed(sphere * quad_gk(outer, -X, X, rel_tol=rel_tol).value, nu)


def selberg_transform_agreement(d, mu, nu, rel_tol=1e-9):
    """(closed form, quadrature to rel_tol, gap): the primary oracle pair, inf
    where the closed form has underflowed to 0.0."""
    # the quadrature first: its domain is the narrower, so a d or mu it refuses
    # costs no Bessel evaluation
    quad = selberg_transform_quadrature(d, mu, nu, rel_tol=rel_tol)
    closed = selberg_transform_closed(d, mu, nu)
    return closed, quad, _gap(closed, quad)
