"""Distance invariants of a group element relative to a totally geodesic cycle.

For gamma in SO(1,d), a direction u in R^(n-1) tangent to the cycle and a
height r > 0, the squared-cosh distance from the point gamma n_u a_r . o to
the cycle submanifold {x_{n+1} = ... = x_d = 0} has the closed form

    f_gamma(u, r) = M r^2 + N_u r^{-2} + Q_u,

with coefficients read off the ANK factorization gamma = a_{r0} n_{w0} k.
Minimizing over r gives delta_u = 2 sqrt(M N_u) + Q_u, the squared-cosh of
the distance between the translated geodesic and the cycle.  A PreparedCycle
evaluates them at an array of directions into one CycleInvariants record;
one direction is the batch of one.  ``invariants_stack`` evaluates a stack
of elements at one direction with one group check, one ANK factorization
and one coefficient pass; a PreparedCycle is its stack of one.  Everything
here is checked against brute-force minimization over the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import ank_stack, from_horospherical, minkowski_pairing, nak_stack, to_horospherical
from .lorentz import _block_offdiag_max, lorentz_mask, require_lorentz


@dataclass(frozen=True)
class CycleInvariants:
    """Coefficients of f_gamma(u, r) = M r^2 + N_u r^{-2} + Q_u and the
    scalars feeding them: the a_{r0} factor of gamma, the (0,0) rotation
    entry u11, the direction-free m (m_n .. m_{d-1}) and M = |m|^2, and the
    direction-dependent beta, n_coeffs (n_n .. n_{d-1}), N_u and Q_u.

    At one direction beta, N_u and Q_u are floats and n_coeffs a vector;
    from ``PreparedCycle.invariants_batch`` they carry a leading axis of
    length m, one entry per direction, and from ``invariants_stack`` every
    field carries one, one entry per element.
    """

    r0: float
    u11: float
    m: np.ndarray
    M: float
    beta: float
    n_coeffs: np.ndarray
    N_u: float
    Q_u: float

    @property
    def delta(self):
        return 2.0 * np.sqrt(self.M * self.N_u) + self.Q_u

    @property
    def r_star(self):
        """Height minimizing f at one direction; +inf when M = 0, 0 when N_u = 0."""
        if self.M == 0.0 and self.N_u == 0.0:
            return 1.0
        if self.M == 0.0:
            return np.inf
        if self.N_u == 0.0:
            return 0.0
        return float((self.N_u / self.M) ** 0.25)

    def f(self, r, k=None):
        """f at the heights r; from a batch, at the heights r[i] of the
        directions k[i]."""
        N_u, Q_u = (self.N_u, self.Q_u) if k is None else (self.N_u[k], self.Q_u[k])
        r = np.asarray(r, dtype=float)
        out = self.M * r * r + N_u / (r * r) + Q_u
        return float(out) if out.ndim == 0 else out

    def s1(self, r, k=None):
        """Height of gamma n_u a_r . o in horospherical coordinates; from a
        batch, at the heights r[i] of the directions k[i]."""
        beta = self.beta if k is None else self.beta[k]
        r = np.asarray(r, dtype=float)
        out = self.r0 / (0.5 * (1.0 - self.u11) * r + (0.5 * (1.0 + self.u11) + beta) / r)
        return float(out) if out.ndim == 0 else out


def _dot(a, b):
    """Dot products of the rows of the stack a with b (one row or a stack
    like a), row by row, so that no value depends on the size of the stack."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _prepare(gammas, cfg):
    """(r0, w0, block, half_col, m, M) of the ANK factorizations of a stack
    of group elements, each with a leading axis: the parts of the
    coefficients that do not depend on the direction.

    The rotation block (u_ij) of the ANK compact factor is 1-indexed in the
    formulas; as stored here u_ij = block[i-1, j-1], so the often-needed
    column entries u_{i+1,1} sit at block[i, 0].
    """
    r0, w0, k = ank_stack(gammas)
    block = np.ascontiguousarray(k[:, 1:, 1:])
    u11 = block[:, 0, 0]
    half_col = 0.5 * block[:, 1:, 0]
    m = ((0.5 * (1.0 - u11))[:, None] * w0 + half_col)[:, cfg.n - 1:]
    return r0, w0, block, half_col, m, _dot(m, m)


def _coefficients(prep, U, n):
    """beta, n_coeffs, N_u, Q_u at the directions U, shape (m, n-1), of
    prepared data of one gamma (no leading axis), which meets every row, or
    of a stack, whose members meet one row each or all the one row."""
    _, w0, block, half_col, m, _ = prep
    u11 = block[..., 0, 0]
    usq = _dot(U, U)
    # beta = (1-u11)|u|^2/2 - sum_{i=2..n} u_{1i} u_{i-1}
    beta = 0.5 * (1.0 - u11) * usq - _dot(U, block[..., 0, 1:n])
    # alpha_i = u_{i+1,1}|u|^2/2 + sum_{j=2..n} u_{i+1,j} u_{j-1},  i = 1..d-1
    alpha = half_col * usq[:, None] + (block[..., 1:, 1:n] @ U[..., None])[..., 0]

    n_all = (0.5 * (1.0 + u11) + beta)[:, None] * w0 + (alpha - half_col)
    n_coeffs = n_all[:, n - 1:]
    return beta, n_coeffs, _dot(n_coeffs, n_coeffs), 1.0 + 2.0 * _dot(n_coeffs, m)


def _check_dimension(gamma, cfg):
    if gamma.shape[-1] != cfg.d + 1:
        raise ValueError("matrix dimension does not match CycleConfig")


def _check_direction(u, cfg):
    if u.size != cfg.n - 1:
        raise ValueError(f"direction u must have n-1 = {cfg.n - 1} components")


class PreparedCycle:
    """Factorization data of one gamma, a group element to within
    lorentz.TOL_GROUP, reusable across many directions u: the stack of one
    of ``invariants_stack``."""

    def __init__(self, gamma, cfg):
        gamma = require_lorentz(gamma)
        _check_dimension(gamma, cfg)
        self.cfg = cfg
        self._prep = tuple(part[0] for part in _prepare(gamma[None], cfg))
        r0, _, block, _, self.m, M = self._prep
        self.r0, self.u11, self.M = float(r0), float(block[0, 0]), float(M)
        self.m.flags.writeable = False      # shared by every record

    def invariants(self, u):
        """The invariants at one direction u (n-1 components): the batch of
        one, with beta, N_u and Q_u as floats."""
        u = np.asarray(u, dtype=float)
        _check_direction(u, self.cfg)
        one = self.invariants_batch(u.reshape(1, -1))
        return CycleInvariants(self.r0, self.u11, self.m, self.M, float(one.beta[0]),
                               one.n_coeffs[0], float(one.N_u[0]), float(one.Q_u[0]))

    def invariants_batch(self, U):
        """The invariants at every row of the directions U, shape (m, n-1),
        each row through the same products, so row i does not depend on
        the other rows."""
        U = np.ascontiguousarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.cfg.n - 1:
            raise ValueError(f"directions U must have shape (m, n-1 = {self.cfg.n - 1})")
        return CycleInvariants(self.r0, self.u11, self.m, self.M,
                               *_coefficients(self._prep, U, self.cfg.n))


def cycle_invariants(gamma, u, cfg):
    """M, N_u, Q_u and friends for gamma acting on the direction u."""
    return PreparedCycle(gamma, cfg).invariants(u)


def invariants_stack(gammas, u, cfg):
    """The invariants of each gamma of a stack (k, d+1, d+1) at one direction
    u, in one record whose every field has a leading axis of length k: row i
    equals cycle_invariants(gammas[i], u, cfg) bit for bit.

    The checks raise what a loop of cycle_invariants over the stack would
    raise first: the first gamma's group and dimension checks come before
    the direction check, the other gammas' group checks after it.  An empty
    stack still has its dimension and direction checked.
    """
    gammas = np.asarray(gammas, dtype=float)
    u = np.asarray(u, dtype=float)
    ok = lorentz_mask(gammas)
    if len(gammas) and not ok[0]:
        require_lorentz(gammas[0])
    _check_dimension(gammas, cfg)
    _check_direction(u, cfg)
    for i in np.flatnonzero(~ok).tolist():
        require_lorentz(gammas[i])
    prep = _prepare(gammas, cfg)
    r0, _, block, _, m, M = prep
    return CycleInvariants(r0, block[:, 0, 0], m, M, *_coefficients(prep, u.reshape(1, -1), cfg.n))


def f_gamma(inv, r):
    """M r^2 + N_u r^{-2} + Q_u; >= delta_u with equality at r_star."""
    if np.any(np.asarray(r) <= 0):
        raise ValueError("r must be positive")
    return inv.f(r)


def delta_u(gamma, u, cfg):
    """2 sqrt(M N_u) + Q_u: squared-cosh of the distance between the
    translated geodesic gamma n_u A . o and the cycle."""
    return float(cycle_invariants(gamma, u, cfg).delta)


def pad_direction(u, cfg):
    """Zero-pad a cycle direction u in R^(n-1) to the ambient R^(d-1)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros(cfg.d - 1)
    out[:cfg.n - 1] = u
    return out


def cycle_point(v, t, cfg):
    """Point n_v a_t . o of the cycle submanifold, v in R^(n-1)."""
    return from_horospherical(pad_direction(v, cfg), t)


def _pairing_to_cycle(point, v, log_t, cfg):
    q = cycle_point(v, float(np.exp(log_t)), cfg)
    return minkowski_pairing(point, q)


def min_dist_to_cycle(point, cfg):
    """Brute-force distance from a point to the cycle submanifold.

    Minimizes the Minkowski pairing (smooth even at distance zero) over
    (v, log t), by coordinate descent from the point's horospherical
    coordinates followed by Nelder-Mead refinement (xatol = fatol = 1e-12,
    at most 500 iterations).  Raises RuntimeError with the iterate trace if
    the refinement fails to converge.
    """
    from scipy.optimize import minimize, minimize_scalar

    point = np.asarray(point, dtype=float)
    n = cfg.n
    v1, s1 = to_horospherical(point)
    t = float(np.sqrt(s1 * s1 + float(v1[n - 1:] @ v1[n - 1:])))
    z = np.concatenate([v1[:n - 1], [np.log(t)]])

    def objective(zz):
        return _pairing_to_cycle(point, zz[:-1], zz[-1], cfg)

    # two sweeps of per-coordinate line search, then simplex refinement
    for _ in range(2):
        for i in range(z.size):
            def line(s, i=i):
                zz = z.copy()
                zz[i] = s
                return objective(zz)
            try:
                res = minimize_scalar(line, bracket=(z[i] - 0.5, z[i], z[i] + 0.5),
                                      options={"xtol": 1e-12, "maxiter": 80})
            except ValueError:
                continue        # flat or one-sided bracket: leave to the simplex
            if res.success and res.fun <= objective(z):
                z[i] = res.x

    trace = []
    res = minimize(objective, z, method="Nelder-Mead",
                   callback=lambda zz: trace.append(zz.copy()),
                   options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 500,
                            "maxfev": 2000})
    best = min(objective(z), res.fun)
    if not res.success and abs(res.fun - objective(z)) > 1e-8 * max(1.0, abs(res.fun)):
        raise RuntimeError(
            "cycle-distance minimizer did not converge; "
            f"last iterates: {trace[-5:]!r}"
        )
    return float(np.arccosh(max(best, 1.0)))


def verify_f_geometric(gamma, u, r, cfg):
    """Closed-form distance arccosh(sqrt(f_gamma(u,r))) against brute force.

    Returns (closed_form, brute_force, gap).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    inv = cycle_invariants(gamma, u, cfg)
    closed = float(np.arccosh(max(np.sqrt(max(inv.f(r), 1.0)), 1.0)))
    point = np.asarray(gamma) @ from_horospherical(pad_direction(u, cfg), r)
    brute = min_dist_to_cycle(point, cfg)
    return closed, brute, abs(closed - brute)


def min_dist_geodesic_to_cycle(gamma, u, cfg):
    """Brute-force distance between gamma . (n_u A . o) and the cycle:
    scan log r in [-8, 8] on a 121-point grid, zoom in on the best height
    five times with 17 points, brute-minimize over the cycle at each
    candidate.  Oracle for delta_u."""
    u_pad = pad_direction(u, cfg)

    def through(x):
        p = np.asarray(gamma) @ from_horospherical(u_pad, float(np.exp(x)))
        return min_dist_to_cycle(p, cfg)

    lo, hi, grid = -8.0, 8.0, 121
    best, best_x = np.inf, 0.0
    for _ in range(6):          # grid zoom; robust when the min sits at a boundary
        logs = np.linspace(lo, hi, grid)
        vals = [through(float(x)) for x in logs]
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_x = vals[i], float(logs[i])
        step = logs[1] - logs[0]
        lo, hi = best_x - step, best_x + step
        grid = 17
    return float(best)


def check_u11_gap(ball, cfg):
    """Largest |u11| over the elements of a word ball (an orbits.Ball)
    outside the cycle subgroup.

    Elements making |u11| >= 1 - 1e-9 are flagged: they signal directions
    fixed at the cycle boundary (parabolic behavior), where the strict gap
    expected of cocompact groups fails.  Returns (max_abs_u11, violations);
    max is None when every element lies in the cycle subgroup.
    """
    mats = np.asarray(ball.mats, dtype=float)
    if len(mats) and mats.shape[-1] != cfg.d + 1:
        # the first element decides, as in a loop of check_membership and ank
        if lorentz_mask(mats[:1], 1e-8)[0]:
            raise ValueError("CycleConfig dimension does not match matrix")
        require_lorentz(mats[0])
    # G0 membership as check_membership(g, "G0", cfg, tol=1e-8) decides it
    outside = np.flatnonzero(~(lorentz_mask(mats, 1e-8)
                               & (_block_offdiag_max(mats, cfg.n + 1) <= 1e-8)))
    if not outside.size:
        return None, []
    for i in outside[~lorentz_mask(mats[outside])].tolist():
        require_lorentz(mats[i])
    u11 = nak_stack(mats[outside])[2][:, 1, 1].tolist()
    violations = [(ball.words[i], v) for i, v in zip(outside.tolist(), u11)
                  if abs(v) >= 1.0 - 1e-9]
    return max(map(abs, u11)), violations
