"""The Lorentz group SO(1,d) and its standard subgroups.

Matrices are plain ``(d+1, d+1)`` float ndarrays acting on Minkowski space
with the form ``J = diag(1, -1, ..., -1)``; the group is taken to be the
identity component (``det g = +1``, ``g[0,0] >= 1``), which preserves the
upper sheet of the hyperboloid.  Coordinate 1 carries the boost direction;
the unipotent directions live in coordinates 2..d.

Each subgroup rule is stated once here, for a stack, in ``check_membership``
(one matrix is the stack of one): G by ``lorentz_mask``, AN0 by the unchecked NAK
reading of a stack (``nak_stack``, ``ank_stack``), K and M by one identity-block
test, and G0 by its block split.  ``_stack`` refuses by name what is no matrix or
stack of them, and ``_check_dimension`` a dimension that is not the ``CycleConfig``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _checks

TOL_GROUP = 1e-9
# G0 membership tolerance: of the group check and of the largest entry
# coupling the cycle block to its complement
TOL_G0 = 1e-8


def minkowski_form(d):
    J = -np.eye(d + 1)
    J[0, 0] = 1.0
    return J


def basepoint(d):
    """The point fixed by K: (1, 0, ..., 0) on the upper sheet."""
    xi = np.zeros(d + 1)
    xi[0] = 1.0
    return xi


def _eyes(shape, d):
    """A stack of identities of size d+1 with leading axes ``shape``."""
    g = np.zeros((*shape, d + 1, d + 1))
    g.reshape(*shape, (d + 1) ** 2)[..., ::d + 2] = 1.0
    return g


def make_boost(x, d):
    """Boost by rapidity ``x`` in the (0,1) plane, identity elsewhere; an
    array of rapidities gives the stack of their boosts."""
    _checks.integer(d=d, at_least=2)
    _checks.finite(x=x)
    x = np.asarray(x, dtype=float)
    g = _eyes(x.shape, d)
    c, s = np.cosh(x), np.sinh(x)
    g[..., 0, 0] = g[..., 1, 1] = c
    g[..., 0, 1] = g[..., 1, 0] = s
    return g


def make_scale(r, d):
    """Boost written multiplicatively: make_boost(log r, d) for r > 0."""
    _checks.positive(r=r)
    return make_boost(np.log(r), d)


def make_unipotent(u, d=None):
    """Upper-triangular horospherical translation by ``u`` in R^(d-1); rows
    of an array u give the stack of their translations."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    _checks.finite(u=u)
    if d is None:
        d = u.shape[-1] + 1
    if u.shape[-1] != d - 1:
        raise ValueError("u must have d-1 components")
    # |u|^2 row by row through dot, as for a single vector
    q = 0.5 * (u[..., None, :] @ u[..., :, None])[..., 0, 0]
    g = _eyes(u.shape[:-1], d)
    g[..., 0, 0] = 1.0 + q
    g[..., 0, 1] = -q
    g[..., 1, 0] = q
    g[..., 1, 1] = 1.0 - q
    g[..., 0, 2:] = u
    g[..., 1, 2:] = u
    g[..., 2:, 0] = u
    g[..., 2:, 1] = -u
    return g


def embed_rotation(k):
    """diag(1, k) for k in SO(d): the maximal compact subgroup K."""
    k = np.asarray(k, dtype=float)
    d = k.shape[0]
    g = np.eye(d + 1)
    g[1:, 1:] = k
    return g


def embed_m_rotation(k):
    """diag(1, 1, k) for k in SO(d-1): the centralizer M of the boost axis."""
    k = np.asarray(k, dtype=float)
    g = np.eye(k.shape[0] + 2)
    g[2:, 2:] = k
    return g


def _stack(g, what="matrix"):
    """g as a float stack (m, d+1, d+1), d >= 2, one matrix the stack of one; else refused."""
    g = np.asarray(g, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-2] != g.shape[-1] or g.shape[-1] < 3:
        raise ValueError(f"{what} must be a (d+1, d+1) array with d >= 2, or a stack of them; "
                         f"got shape {g.shape}")
    return g.reshape(-1, *g.shape[-2:])


def lorentz_inverse(g):
    """Inverse via the form: g^-1 = J g^T J by sign flips (exact for group elements), stacks too."""
    g = np.asarray(g)
    sign = np.diag(minkowski_form(_stack(g).shape[-1] - 1))
    return np.swapaxes(g, -1, -2) * np.outer(sign, sign)


def group_residual(g):
    """Entrywise residual max|g^T J g - J|; per matrix of a stack."""
    g = np.asarray(g, dtype=float)
    J = minkowski_form(_stack(g).shape[-1] - 1)
    res = np.abs(np.swapaxes(g, -1, -2) @ J @ g - J).max(axis=(-2, -1))
    return float(res) if g.ndim == 2 else res


def lorentz_mask(g, tol=TOL_GROUP):
    """The group test at tol of each matrix of a stack (m, d+1, d+1), one matrix a stack of one."""
    _checks.nonnegative(tol=tol)
    g = _stack(g)
    ok = group_residual(g) <= tol
    sub = g[ok]
    # det is exactly +-1 on the group; the tolerance separates the two components and
    # absorbs LU roundoff on large products (float_power rounds like a scalar's pow)
    big = np.float_power(np.abs(sub).max(axis=(-2, -1)), g.shape[-1])
    det_tol = np.minimum(0.5, np.maximum(tol, 1e3 * np.finfo(float).eps * big))
    ok[ok] = (np.abs(np.linalg.det(sub) - 1.0) <= det_tol) & (sub[:, 0, 0] >= 1.0 - tol)
    return ok


def is_lorentz(g, tol=TOL_GROUP):
    """Whether g is one matrix of the group at tol: check_membership's G case."""
    return np.ndim(g) == 2 and check_membership(g, "G", tol=tol)


def require_lorentz(g, tol=TOL_GROUP, what="matrix"):
    """g as a float array: a (d+1, d+1) matrix with d >= 2 in the group, or a stack
    of them, refused at its first member that lorentz_mask rejects (an empty one passes)."""
    stack = _stack(g, what)
    ok = lorentz_mask(stack, tol)
    if not ok.all():
        bad = stack[ok.argmin()]
        raise ValueError(
            f"{what} is not in the identity component of SO(1,d): "
            f"residual max|g^T J g - J| = {group_residual(bad):.3e}, "
            f"det = {np.linalg.det(bad):.6f}, g00 = {bad[0, 0]:.6f}"
        )
    return stack[0] if np.ndim(g) == 2 else stack


@dataclass(frozen=True)
class CycleConfig:
    """Ambient dimension d and cycle dimension n, with the half-sums of
    positive roots rho = (d-1)/2 and rho0 = (n-1)/2."""

    d: int
    n: int
    rho: float = field(init=False)
    rho0: float = field(init=False)

    def __post_init__(self):
        _checks.integer(d=self.d, n=self.n)
        if self.d < 3 or not (2 <= self.n <= self.d - 1):
            raise ValueError(f"need d >= 3 and 2 <= n <= d-1, got d={self.d!r}, n={self.n!r}")
        object.__setattr__(self, "rho", (self.d - 1) / 2.0)
        object.__setattr__(self, "rho0", (self.n - 1) / 2.0)


def _check_dimension(g, cfg):
    """Refuse a matrix, or a stack, that does not act on the R^(1,d) of cfg."""
    if g.shape[-1] != cfg.d + 1:
        raise ValueError("matrix dimension does not match CycleConfig")


def _block_offdiag_max(g, split):
    """Largest entry coupling coordinates [0:split) with [split:), per matrix."""
    return np.maximum(np.abs(g[..., :split, split:]).max(axis=(-2, -1)),
                      np.abs(g[..., split:, :split]).max(axis=(-2, -1)))


def nak_stack(g):
    """NAK factors (w, x, k) of each matrix of a stack (m, d+1, d+1) of group
    elements, unchecked: w of shape (m, d-1), x (m,) and k (m, d+1, d+1).

    With p = g . o one has p0 - p1 = 1/s and p[2:] = w/s, which determines
    the NA part; the compact factor is whatever is left over.
    """
    d = g.shape[-1] - 1
    s = 1.0 / (g[:, 0, 0] - g[:, 1, 0])      # p0 - p1 = sqrt(1+|p'|^2) - p1 > 0 on the sheet
    w = g[:, 2:, 0] * s[:, None]
    x = np.log(s)
    k = make_boost(-x, d) @ make_unipotent(-w, d) @ g
    return w, x, k


def ank_stack(g):
    """ANK factors (r0, w0, k) of each matrix of a stack of group elements,
    unchecked: if g = n_w a_s k then g = a_s n_{w/s} k."""
    w, x, k = nak_stack(g)
    r0 = np.exp(x)
    return r0, w / r0[:, None], k


def check_membership(g, subgroup, cfg=None, tol=TOL_GROUP):
    """Test whether ``g`` lies in one of G, K, A, N, M, G0, AN0: a bool for one matrix
    (False for one of no group's shape), the loop's bools for a stack, each rule
    stated once for a stack.  K and M are identity blocks (of size 1, 2) coupled to
    nothing; AN0 is read off the NAK factors.  G0/AN0 need a CycleConfig for the
    block split, and refuse a group element of another dimension."""
    if subgroup not in ("G", "K", "A", "N", "M", "G0", "AN0"):
        raise ValueError(f"unknown subgroup {subgroup!r}")
    if subgroup in ("G0", "AN0") and cfg is None:
        raise ValueError(f"{subgroup} membership needs a CycleConfig")
    g = np.asarray(g, dtype=float)
    if g.ndim == 2 and not 3 <= g.shape[0] == g.shape[1]:
        return False
    stack = _stack(g)
    ok = lorentz_mask(stack, tol)
    sub, d = stack[ok], stack.shape[-1] - 1
    if subgroup in ("G0", "AN0") and len(sub):
        _check_dimension(sub, cfg)
    if subgroup in ("K", "M"):
        s = 1 if subgroup == "K" else 2
        ok[ok] = np.maximum(np.abs(sub[:, :s, :s] - np.eye(s)).max(axis=(1, 2)),
                            _block_offdiag_max(sub, s)) <= tol
    elif subgroup == "A":
        x = np.copysign(np.arccosh(np.maximum(sub[:, 0, 0], 1.0)), sub[:, 0, 1])
        ok[ok] = np.abs(sub - make_boost(x, d)).max(axis=(1, 2)) <= tol
    elif subgroup == "N":
        ok[ok] = np.abs(sub - make_unipotent(sub[:, 2:, 0], d)).max(axis=(1, 2)) <= tol
    elif subgroup == "G0":
        ok[ok] = _block_offdiag_max(sub, cfg.n + 1) <= tol
    elif subgroup == "AN0":
        w, _, k = nak_stack(sub)
        ok[ok] = ((np.abs(w[:, cfg.n - 1:]).max(axis=-1) <= tol)
                  & (np.abs(k - np.eye(d + 1)).max(axis=(1, 2)) <= max(tol, 1e2 * TOL_GROUP)))
    return bool(ok[0]) if g.ndim == 2 else ok


def commutation_identities(r, u, k=None):
    """Check the three structural identities used throughout:

    1. a_r n_u = n_{u r} a_r
    2. diag(1,1,k) n_u = n_{u k^T} diag(1,1,k)          (k in SO(d-1))
    3. diag(1,-1,k') a_r = a_{1/r} diag(1,-1,k')        (k' = k with its first
                                                          row negated, det -1)

    Returns a tuple of three booleans (entrywise agreement within 1e-12).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = u.size + 1
    a = make_scale(r, d)
    k = np.eye(d - 1) if k is None else np.asarray(k, dtype=float)
    mk = embed_m_rotation(k)
    mkp = np.eye(d + 1)
    mkp[1, 1] = -1.0
    mkp[2:, 2:] = k
    mkp[2, 2:] *= -1.0
    sides = [(a @ make_unipotent(u, d), make_unipotent(u * r, d) @ a),
             (mk @ make_unipotent(u, d), make_unipotent(u @ k.T, d) @ mk),
             (mkp @ a, make_scale(1.0 / r, d) @ mkp)]
    return tuple(float(np.max(np.abs(lhs - rhs))) <= 1e-12 for lhs, rhs in sides)


def spin_cover_so13(m):
    """Image of m in SL(2,C) under the double cover onto SO0(1,3).

    The action X -> m X m* on Hermitian matrices is read in the basis
    X = [[x0+x1, x2+i x3], [x2-i x3, x0-x1]], so det X is the Minkowski
    norm and the diagonal/upper-triangular subgroups of SL(2,C) land on
    the boost axis A and the unipotent group N of our conventions.  The
    determinant of m must be 1 to within 1e-10.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 complex matrix")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > 1e-10:
        raise ValueError(f"matrix must have det 1 (got {det})")
    basis = (
        np.eye(2, dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 1j], [-1j, 0]], dtype=complex),
    )
    mh = m.conj().T
    g = np.empty((4, 4))
    for j, B in enumerate(basis):
        X = m @ B @ mh
        g[0, j] = 0.5 * (X[0, 0] + X[1, 1]).real
        g[1, j] = 0.5 * (X[0, 0] - X[1, 1]).real
        g[2, j] = X[0, 1].real
        g[3, j] = X[0, 1].imag
    return require_lorentz(g, tol=1e-8, what="spin cover image")


def random_rotation(rng, d):
    """Haar-ish SO(d) sample: QR of a Gaussian matrix, determinant fixed."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_lorentz(rng, d, n_factors=6):
    """Random word in boosts, unipotents and rotations (covers G = NAK);
    boost rapidities and unipotent entries are uniform in [-0.8, 0.8]."""
    g = np.eye(d + 1)
    for _ in range(n_factors):
        kind = rng.integers(0, 3)
        if kind == 0:
            g = g @ make_boost(0.8 * rng.uniform(-1, 1), d)
        elif kind == 1:
            g = g @ make_unipotent(0.8 * rng.uniform(-1, 1, size=d - 1), d)
        else:
            g = g @ embed_rotation(random_rotation(rng, d))
    return g
