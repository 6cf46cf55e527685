"""Iwasawa (NAK / ANK) and Cartan (KA+K) factorizations, hyperbolic distance.

Horospherical coordinates (u, r) in R^(d-1) x R_+ parameterize the upper
hyperboloid sheet through the point n_u a_r . o; the metric normalization
is fixed so that dist(a_t . o, o) = |t|.  ``nak`` and ``ank`` check one
element and read it through ``lorentz.nak_stack`` and ``lorentz.ank_stack``.
``_sheet_point`` refuses what is no point of the upper sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .lorentz import (TOL_GROUP, _element, ank_stack, make_boost, make_scale, make_unipotent,
                      nak_stack)


@dataclass(frozen=True)
class NakFactors:
    """g = n a k with n = make_unipotent(w), a = make_boost(x)."""

    w: np.ndarray
    x: float
    k: np.ndarray

    @property
    def s(self):
        return float(np.exp(self.x))

    def product(self):
        return make_unipotent(self.w) @ make_boost(self.x, self.w.size + 1) @ self.k


@dataclass(frozen=True)
class AnkFactors:
    """g = a n k with a = make_scale(r0), n = make_unipotent(w0)."""

    r0: float
    w0: np.ndarray
    k: np.ndarray

    def product(self):
        d = self.w0.size + 1
        return make_scale(self.r0, d) @ make_unipotent(self.w0, d) @ self.k


@dataclass(frozen=True)
class KakFactors:
    """g = k1 a_t k2 with t >= 0."""

    k1: np.ndarray
    t: float
    k2: np.ndarray

    def product(self):
        return self.k1 @ make_boost(self.t, self.k1.shape[0] - 1) @ self.k2


def nak(g):
    """NAK factors of g, one group element to within lorentz.TOL_GROUP: the
    stack of one."""
    w, x, k = nak_stack(_element(g))
    return NakFactors(w=w[0], x=float(x[0]), k=k[0])


def ank(g):
    """ANK factors of g, one group element to within lorentz.TOL_GROUP: the
    stack of one."""
    r0, w0, k = ank_stack(_element(g))
    return AnkFactors(r0=float(r0[0]), w0=w0[0], k=k[0])


def _complete_frame(v):
    """Deterministic Q in SO(d) with first column v (unit vector).

    Householder reflection through v - e1, with a fixed column flip to
    restore det +1; the degenerate directions +-e1 are special-cased.
    """
    d = v.size
    e1 = np.zeros(d)
    e1[0] = 1.0
    if np.linalg.norm(v - e1) < 1e-12:
        return np.eye(d)
    if np.linalg.norm(v + e1) < 1e-12:
        q = np.eye(d)
        q[0, 0] = -1.0
        q[-1, -1] = -1.0
        return q
    h = v - e1
    H = np.eye(d) - 2.0 * np.outer(h, h) / (h @ h)
    H[:, 1] *= -1.0     # restore det +1 without touching column 0
    return H


def kak(g):
    """Cartan factors g = k1 a_t k2 with t = arccosh(g00) >= 0, for g a
    group element to within lorentz.TOL_GROUP.

    The decomposition is unique only modulo the centralizer of the boost
    axis; the frame completion makes a fixed deterministic choice.
    """
    g = _element(g)[0]
    d = g.shape[0] - 1
    t = float(np.arccosh(max(g[0, 0], 1.0)))
    p = g[:, 0]
    spatial = p[1:]
    norm = float(np.linalg.norm(spatial))
    if norm < 1e-12:
        return KakFactors(k1=np.eye(d + 1), t=0.0, k2=g.copy())
    q = _complete_frame(spatial / norm)
    k1 = np.eye(d + 1)
    k1[1:, 1:] = q
    k2 = make_boost(-t, d) @ k1.T @ g
    return KakFactors(k1=k1, t=t, k2=k2)


def minkowski_pairing(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p[0] * q[0] - p[1:] @ q[1:])


def dist(p, q):
    """Hyperbolic distance: arccosh of the Minkowski pairing, clamped at 1."""
    return float(np.arccosh(max(minkowski_pairing(p, q), 1.0)))


def dist_horospherical(u, r, v, t):
    """Distance in (u, r)-coordinates: arccosh[(|u-v|^2 + r^2 + t^2)/(2rt)]."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    _checks.finite(u=u, v=v)
    _checks.positive(r=r, t=t)
    if u.shape != v.shape:      # numpy would broadcast a length-1 v silently
        raise ValueError(f"v must be shaped like u, {u.shape}, got {v.shape}")
    du = u - v
    arg = (du @ du + r * r + t * t) / (2.0 * r * t)
    return float(np.arccosh(max(arg, 1.0)))


def from_horospherical(u, r):
    """Point n_u a_r . o of the upper sheet."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    _checks.finite(u=u)
    _checks.positive(r=r)
    q = 0.5 * float(u @ u) / r
    p = np.empty(u.size + 2)
    p[0] = 0.5 * (r + 1.0 / r) + q
    p[1] = 0.5 * (r - 1.0 / r) + q
    p[2:] = u / r
    return p


def _sheet_point(p, name):
    """p as floats, refused by name unless a point of the upper sheet: finite, with
    p0 > 0 and |<p, p> - 1| <= TOL_GROUP p0^2, the rounding of <p, p> being
    relative to p0^2."""
    p = np.asarray(p, dtype=float)
    if (p.ndim != 1 or p.size < 3 or not np.isfinite(p).all() or not p[0] > 0.0
            or abs(minkowski_pairing(p, p) - 1.0) > TOL_GROUP * p[0] * p[0]):
        raise ValueError(f"{name} must be on the upper sheet (finite, p0 > 0, <p, p> = 1), "
                         f"got {p.tolist()!r}")
    return p


def to_horospherical(p):
    """Inverse of from_horospherical: r = 1/(p0 - p1), u = p[2:] * r, for p a
    point of the upper sheet."""
    p = _sheet_point(p, "p")
    r = 1.0 / (p[0] - p[1])
    return p[2:] * r, float(r)


def random_point(rng, d):
    """Random point n_u a_r . o with u uniform in [-2, 2]^(d-1) and log r
    uniform in [-1, 1]."""
    u = 2.0 * rng.uniform(-1, 1, size=d - 1)
    r = float(np.exp(rng.uniform(-1, 1)))
    return from_horospherical(u, r)
