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
and one coefficient pass; a PreparedCycle is its stack of one.  f and
delta_u are checked against brute-force minimization over the cycle (for
delta_u, jointly with the height) by one Nelder-Mead simplex ``_nelder_mead``
(scipy's method ported to numpy and pinned to it in the tests), the
package's one search routine: J's window scan in ``bounds`` polishes with
it too, and no module imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .decompose import _sheet_point, from_horospherical, minkowski_pairing, to_horospherical
from .lorentz import (TOL_G0, _check_dimension, _element, ank_stack, check_membership,
                      nak_stack, require_lorentz)


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


def _directions(U, n):
    """The one rule for a direction: a stack U (m, n-1) of finite numbers, as
    the contiguous floats ``_coefficients`` reads; one direction u is the
    stack of one, ``np.ravel(u)[None]``.  A refusal names the first bad row."""
    U = np.ascontiguousarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != n - 1 or not np.isfinite(U).all():
        bad = [] if U.ndim != 2 else U if U.shape[1] != n - 1 else U[~np.isfinite(U).all(axis=1)]
        got = bad[0].tolist() if len(bad) else f"shape {U.shape}"
        raise ValueError(f"u must be a direction of n-1 = {n - 1} finite numbers, got {got}")
    return U


class PreparedCycle:
    """Factorization data of one gamma, one group element to within
    lorentz.TOL_GROUP (a stack is refused by ``lorentz._element``), reusable
    across many directions u: the stack of one of ``invariants_stack``."""

    def __init__(self, gamma, cfg):
        self.cfg = cfg
        self._prep = tuple(part[0] for part in _prepare(_element(gamma, cfg), cfg))
        r0, _, block, _, self.m, M = self._prep
        self.r0, self.u11, self.M = float(r0), float(block[0, 0]), float(M)
        self.m.flags.writeable = False      # shared by every record

    def invariants(self, u):
        """The invariants at one direction u (n-1 components): the batch's
        products on one row, with beta, N_u and Q_u as floats."""
        beta, n_coeffs, N_u, Q_u = _coefficients(
            self._prep, _directions(np.ravel(u)[None], self.cfg.n), self.cfg.n)
        return CycleInvariants(self.r0, self.u11, self.m, self.M, float(beta[0]),
                               n_coeffs[0], float(N_u[0]), float(Q_u[0]))

    def invariants_batch(self, U):
        """The invariants at every row of the directions U, shape (m, n-1),
        each row through the same products, so row i does not depend on
        the other rows."""
        return CycleInvariants(self.r0, self.u11, self.m, self.M,
                               *_coefficients(self._prep, _directions(U, self.cfg.n), self.cfg.n))


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
    require_lorentz(gammas[:1])
    _check_dimension(gammas, cfg)
    U = _directions(np.ravel(u)[None], cfg.n)
    require_lorentz(gammas)
    prep = _prepare(gammas, cfg)
    r0, _, block, _, m, M = prep
    return CycleInvariants(r0, block[:, 0, 0], m, M, *_coefficients(prep, U, cfg.n))


def f_gamma(inv, r):
    """M r^2 + N_u r^{-2} + Q_u; >= delta_u with equality at r_star."""
    _checks.positive(r=r)
    return inv.f(r)


def delta_u(gamma, u, cfg):
    """2 sqrt(M N_u) + Q_u: squared-cosh of the distance between the
    translated geodesic gamma n_u A . o and the cycle."""
    return float(cycle_invariants(gamma, u, cfg).delta)


def pad_direction(u, cfg):
    """Zero-pad a cycle direction u in R^(n-1) to the ambient R^(d-1)."""
    out = np.zeros(cfg.d - 1)
    out[:cfg.n - 1] = _directions(np.ravel(u)[None], cfg.n)[0]
    return out


def cycle_point(v, t, cfg):
    """Point n_v a_t . o of the cycle submanifold, v in R^(n-1)."""
    return from_horospherical(pad_direction(v, cfg), t)


def _pairing_to_cycle(point, v, log_t, cfg):
    # v, the simplex's own n-1 coordinates, is padded unchecked
    v_pad = np.concatenate([v, np.zeros(cfg.d - cfg.n)])
    return minkowski_pairing(point, from_horospherical(v_pad, float(np.exp(log_t))))


def _nelder_mead(func, x0):
    """(x, func(x)) at the best vertex the Nelder-Mead simplex reaches from x0.

    The unbounded, non-adaptive method of Nelder & Mead, Comput. J. 7
    (1965), step for step as ``scipy.optimize.minimize(method="Nelder-Mead")``
    takes it with the options below, so both return the same point and value
    to the bit: an initial simplex of 5% steps (0.00025 where a coordinate
    is 0), reflection, expansion, contraction and shrink coefficients 1, 2,
    1/2, 1/2, and a stop once the simplex spans at most xatol and its values
    at most fatol.  Raises RuntimeError, naming the best vertex and value,
    where scipy would report failure: after maxiter = 200 x dimension
    iterations, scipy's default budget.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).ravel()
    N = len(x0)
    xatol, fatol, maxiter = 1e-10, 1e-12, 200 * N
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(v) for v in sim], dtype=float)
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        doshrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            # contraction outside the simplex
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = func(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:
            # contraction inside the simplex
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = func(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            for j in range(1, N + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    else:
        raise RuntimeError(f"Nelder-Mead did not converge in {maxiter} iterations; "
                           f"best vertex {sim[0].tolist()}, value {fsim[0]}")
    return sim[0], np.min(fsim)


def _cycle_start(point, cfg):
    """(v, log t) of the cycle point below ``point``: its horospherical
    v_1..v_{n-1} at height t = sqrt(s^2 + v_n^2 + ... + v_{d-1}^2)."""
    n = cfg.n
    v1, s1 = to_horospherical(point)
    t = float(np.sqrt(s1 * s1 + float(v1[n - 1:] @ v1[n - 1:])))
    return np.concatenate([v1[:n - 1], [np.log(t)]])


def min_dist_to_cycle(point, cfg):
    """Brute-force distance from a point to the cycle submanifold.

    Minimizes the Minkowski pairing (smooth even at distance zero) over
    (v, log t) with the Nelder-Mead simplex ``_nelder_mead`` (xatol 1e-10,
    fatol 1e-12, at most 200 x dimension iterations), started from the
    cycle point below the point.  Refuses a point of other than d+1
    coordinates or off the upper sheet (``decompose._sheet_point``); raises
    RuntimeError if the simplex reaches its iteration cap.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (cfg.d + 1,):
        raise ValueError(f"point must have d+1 = {cfg.d + 1} coordinates, got shape {point.shape}")
    _sheet_point(point, "point")
    # the start is a vertex of the first simplex, so the value is never above it
    _, best = _nelder_mead(lambda z: _pairing_to_cycle(point, z[:-1], z[-1], cfg),
                           _cycle_start(point, cfg))
    return float(np.arccosh(max(best, 1.0)))


def verify_f_geometric(gamma, u, r, cfg):
    """Closed-form distance arccosh(sqrt(f_gamma(u,r))) against brute force.

    Returns (closed_form, brute_force, gap).
    """
    inv = cycle_invariants(gamma, u, cfg)
    closed = float(np.arccosh(max(np.sqrt(max(inv.f(r), 1.0)), 1.0)))
    point = np.asarray(gamma) @ from_horospherical(pad_direction(u, cfg), r)
    brute = min_dist_to_cycle(point, cfg)
    return closed, brute, abs(closed - brute)


def min_dist_geodesic_to_cycle(gamma, u, cfg):
    """Brute-force distance between gamma . (n_u A . o) and the cycle, the
    oracle for delta_u (it reads no invariant): one ``_nelder_mead`` search
    of the pairing over (v, log t, log r), the cycle point and the geodesic
    height together, from r = 1 and the cycle point below gamma n_u . o.
    Defined where M N_u > 0, so that the minimum is attained; refuses gamma as
    PreparedCycle does; raises RuntimeError at the simplex's 200 x dimension iterations."""
    gamma = _element(gamma, cfg)[0]
    u_pad = pad_direction(u, cfg)

    def pairing(z):
        point = gamma @ from_horospherical(u_pad, float(np.exp(z[-1])))
        return _pairing_to_cycle(point, z[:-2], z[-2], cfg)

    _, best = _nelder_mead(pairing, np.append(
        _cycle_start(gamma @ from_horospherical(u_pad, 1.0), cfg), 0.0))
    return float(np.arccosh(max(best, 1.0)))


def check_u11_gap(ball, cfg):
    """Largest |u11| over the elements of a word ball (an orbits.Ball)
    outside the cycle subgroup.

    Elements making |u11| >= 1 - 1e-9 are flagged: they signal directions
    fixed at the cycle boundary (parabolic behavior), where the strict gap
    expected of cocompact groups fails.  Returns (max_abs_u11, violations);
    max is None when every element lies in the cycle subgroup.
    """
    mats = np.asarray(ball.mats, dtype=float)
    # the first element decides, as in a loop of check_membership and ank
    require_lorentz(mats[:1], TOL_G0)
    _check_dimension(mats, cfg)
    outside = np.flatnonzero(~check_membership(mats, "G0", cfg, TOL_G0))
    require_lorentz(mats[outside])
    if not outside.size:
        return None, []
    u11 = nak_stack(mats[outside])[2][:, 1, 1].tolist()
    violations = [(ball.words[i], v) for i, v in zip(outside.tolist(), u11)
                  if abs(v) >= 1.0 - 1e-9]
    return max(map(abs, u11)), violations
