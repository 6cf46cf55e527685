"""Distance invariants of a group element relative to a totally geodesic cycle.

For gamma in SO(1,d), a direction u in R^(n-1) tangent to the cycle and a
height r > 0, the squared-cosh distance from the point gamma n_u a_r . o to
the cycle submanifold {x_{n+1} = ... = x_d = 0} has the closed form

    f_gamma(u, r) = M r^2 + N_u r^{-2} + Q_u,

with coefficients read off the ANK factorization gamma = a_{r0} n_{w0} k.
Minimizing over r gives delta_u = 2 sqrt(M N_u) + Q_u, the squared-cosh of
the distance between the translated geodesic and the cycle.  A PreparedCycle
evaluates them at one direction or at an array of directions, with rows
bit-identical to the one-direction values.  Everything here is checked
against brute-force minimization over the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import ank, from_horospherical, minkowski_pairing, to_horospherical
from .lorentz import CycleConfig, check_membership, require_lorentz


@dataclass(frozen=True)
class CycleInvariants:
    """Coefficients of f_gamma(u, r) = M r^2 + N_u r^{-2} + Q_u and the
    scalars feeding them: a_{r0} n_{w0} factor of gamma, the (0,0) rotation
    entry u11, and the direction-dependent beta, alpha_i."""

    cfg: CycleConfig
    u: np.ndarray
    r0: float
    w0: np.ndarray
    u11: float
    beta: float
    alpha: np.ndarray        # alpha_1 .. alpha_{d-1}
    m: np.ndarray            # m_n .. m_{d-1}
    n_coeffs: np.ndarray     # n_n .. n_{d-1}
    M: float
    N_u: float
    Q_u: float

    @property
    def delta(self):
        return 2.0 * np.sqrt(self.M * self.N_u) + self.Q_u

    @property
    def r_star(self):
        """Height minimizing f; +inf when M = 0, 0 when N_u = 0."""
        if self.M == 0.0 and self.N_u == 0.0:
            return 1.0
        if self.M == 0.0:
            return np.inf
        if self.N_u == 0.0:
            return 0.0
        return float((self.N_u / self.M) ** 0.25)

    def f(self, r):
        out = _f(self.M, self.N_u, self.Q_u, np.asarray(r, dtype=float))
        return float(out) if out.ndim == 0 else out

    def s1(self, r):
        """Height of gamma n_u a_r . o in horospherical coordinates."""
        out = _s1(self.r0, self.u11, self.beta, np.asarray(r, dtype=float))
        return float(out) if out.ndim == 0 else out


def _f(M, N_u, Q_u, r):
    return M * r * r + N_u / (r * r) + Q_u


def _s1(r0, u11, beta, r):
    return r0 / (0.5 * (1.0 - u11) * r + (0.5 * (1.0 + u11) + beta) / r)


def _dot(a, b):
    """Dot products of the rows of a with b (one row or a stack like a).

    A row goes through the BLAS dot of a 1-D ``@`` whether it comes alone
    or in a stack, so batching cannot move a value by an ulp.
    """
    if a.ndim == 1:
        return a @ b
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


@dataclass(frozen=True)
class InvariantArrays:
    """The coefficients of f_gamma at m directions at once: beta, N_u and
    Q_u have shape (m,); r0, u11 and M do not depend on the direction."""

    r0: float
    u11: float
    M: float
    beta: np.ndarray
    N_u: np.ndarray
    Q_u: np.ndarray

    @property
    def delta(self):
        return 2.0 * np.sqrt(self.M * self.N_u) + self.Q_u

    def f(self, r, k):
        """f at the heights r[i] of the directions k[i]."""
        return _f(self.M, self.N_u[k], self.Q_u[k], r)

    def s1(self, r, k):
        """s1 at the heights r[i] of the directions k[i]."""
        return _s1(self.r0, self.u11, self.beta[k], r)


class PreparedCycle:
    """Factorization data of one gamma, reusable across many directions u.

    The rotation block (u_ij) of the ANK compact factor is 1-indexed in the
    formulas; as stored here u_ij = block[i-1, j-1], so the often-needed
    column entries u_{i+1,1} sit at block[i, 0].
    """

    def __init__(self, gamma, cfg, tol=1e-9):
        gamma = require_lorentz(gamma, tol=tol)
        if gamma.shape[0] != cfg.d + 1:
            raise ValueError("matrix dimension does not match CycleConfig")
        self.cfg = cfg
        fac = ank(gamma, tol=tol)
        self.r0 = float(fac.r0)
        self.w0 = fac.w0.copy()
        self.block = fac.k[1:, 1:].copy()
        self.u11 = float(self.block[0, 0])
        # the parts of the coefficients that do not depend on the direction
        self._half_col = 0.5 * self.block[1:, 0]
        self.m = (0.5 * (1.0 - self.u11) * self.w0 + self._half_col)[cfg.n - 1:]
        self.M = float(self.m @ self.m)

    def invariants(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.size != self.cfg.n - 1:
            raise ValueError(f"direction u must have n-1 = {self.cfg.n - 1} components")
        beta, alpha, n_coeffs, N_u, Q_u = self._coefficients(u.ravel())
        return CycleInvariants(cfg=self.cfg, u=u.copy(), r0=self.r0, w0=self.w0.copy(),
                               u11=self.u11, beta=float(beta), alpha=alpha,
                               m=self.m.copy(), n_coeffs=n_coeffs,
                               M=self.M, N_u=float(N_u), Q_u=float(Q_u))

    def invariants_batch(self, U):
        """The invariants at every row of the directions U, shape (m, n-1).

        Row i equals ``invariants(U[i])`` bit for bit: both run the same
        code, whose every product goes through the BLAS routine a single
        direction would use.
        """
        U = np.ascontiguousarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.cfg.n - 1:
            raise ValueError(f"directions U must have shape (m, n-1 = {self.cfg.n - 1})")
        beta, _, _, N_u, Q_u = self._coefficients(U)
        return InvariantArrays(r0=self.r0, u11=self.u11, M=self.M, beta=beta, N_u=N_u, Q_u=Q_u)

    def _coefficients(self, u):
        """beta, alpha, n_coeffs, N_u, Q_u for a direction u of shape (n-1,)
        or a stack of them, shape (m, n-1)."""
        n, u11, block, half_col = self.cfg.n, self.u11, self.block, self._half_col
        usq = _dot(u, u)
        # beta = (1-u11)|u|^2/2 - sum_{i=2..n} u_{1i} u_{i-1}
        beta = 0.5 * (1.0 - u11) * usq - _dot(u, block[0, 1:n])
        # alpha_i = u_{i+1,1}|u|^2/2 + sum_{j=2..n} u_{i+1,j} u_{j-1},  i = 1..d-1
        alpha = half_col * usq[..., None] + (block[1:, 1:n] @ u[..., None])[..., 0]

        n_all = (0.5 * (1.0 + u11) + beta)[..., None] * self.w0 + (alpha - half_col)
        n_coeffs = n_all[..., n - 1:]
        return beta, alpha, n_coeffs, _dot(n_coeffs, n_coeffs), 1.0 + 2.0 * _dot(n_coeffs, self.m)


def cycle_invariants(gamma, u, cfg, tol=1e-9):
    """M, N_u, Q_u and friends for gamma acting on the direction u."""
    return PreparedCycle(gamma, cfg, tol=tol).invariants(u)


def f_gamma(inv, r):
    """M r^2 + N_u r^{-2} + Q_u; >= delta_u with equality at r_star."""
    if np.any(np.asarray(r) <= 0):
        raise ValueError("r must be positive")
    return inv.f(r)


def delta_u(gamma, u, cfg, tol=1e-9):
    """2 sqrt(M N_u) + Q_u: squared-cosh of the distance between the
    translated geodesic gamma n_u A . o and the cycle."""
    return float(cycle_invariants(gamma, u, cfg, tol=tol).delta)


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


def min_dist_to_cycle(point, cfg, seed=None, max_iter=500, tol=1e-12):
    """Brute-force distance from a point to the cycle submanifold.

    Minimizes the Minkowski pairing (smooth even at distance zero) over
    (v, log t), by coordinate descent from the seed followed by Nelder-Mead
    refinement.  Raises RuntimeError with the iterate trace if the
    refinement fails to converge.
    """
    from scipy.optimize import minimize, minimize_scalar

    point = np.asarray(point, dtype=float)
    n = cfg.n
    if seed is None:
        v1, s1 = to_horospherical(point)
        v = v1[:n - 1]
        t = float(np.sqrt(s1 * s1 + float(v1[n - 1:] @ v1[n - 1:])))
    else:
        v, t = seed
        v = np.atleast_1d(np.asarray(v, dtype=float)).copy()
    z = np.concatenate([np.atleast_1d(v), [np.log(t)]])

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
                   options={"xatol": tol, "fatol": tol, "maxiter": max_iter,
                            "maxfev": 4 * max_iter})
    best = min(objective(z), res.fun)
    if not res.success and abs(res.fun - objective(z)) > 1e-8 * max(1.0, abs(res.fun)):
        raise RuntimeError(
            "cycle-distance minimizer did not converge; "
            f"last iterates: {trace[-5:]!r}"
        )
    return float(np.arccosh(max(best, 1.0)))


def verify_f_geometric(gamma, u, r, cfg, tol=1e-9):
    """Closed-form distance arccosh(sqrt(f_gamma(u,r))) against brute force.

    Returns (closed_form, brute_force, gap).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    inv = cycle_invariants(gamma, u, cfg, tol=tol)
    closed = float(np.arccosh(max(np.sqrt(max(inv.f(r), 1.0)), 1.0)))
    point = np.asarray(gamma) @ from_horospherical(pad_direction(u, cfg), r)
    brute = min_dist_to_cycle(point, cfg)
    return closed, brute, abs(closed - brute)


def min_dist_geodesic_to_cycle(gamma, u, cfg, log_r_range=(-8.0, 8.0), grid=121):
    """Brute-force distance between gamma . (n_u A . o) and the cycle:
    scan log r on a grid, refine the best height, brute-minimize over the
    cycle at each candidate.  Oracle for delta_u."""
    u_pad = pad_direction(u, cfg)

    def through(x):
        p = np.asarray(gamma) @ from_horospherical(u_pad, float(np.exp(x)))
        return min_dist_to_cycle(p, cfg)

    lo, hi = log_r_range
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


def check_u11_gap(ball, cfg, tol=1e-9):
    """Largest |u11| over the elements of a word ball (an orbits.Ball)
    outside the cycle subgroup.

    Elements making |u11| >= 1 - tol are flagged: they signal directions
    fixed at the cycle boundary (parabolic behavior), where the strict gap
    expected of cocompact groups fails.  Returns (max_abs_u11, violations);
    max is None when every element lies in the cycle subgroup.
    """
    max_u11 = None
    violations = []
    for word, g in zip(ball.words, ball.mats):
        if check_membership(g, "G0", cfg, tol=1e-8):
            continue
        u11 = float(ank(g).k[1, 1])
        if max_u11 is None or abs(u11) > max_u11:
            max_u11 = abs(u11)
        if abs(u11) >= 1.0 - tol:
            violations.append((word, u11))
    return max_u11, violations
