"""Adaptive Gauss-Kronrod quadrature with vectorized, complex-capable integrands.

A single (G10, K21) panel rule (QUADPACK dqk21) is refined by bisection in
waves: every panel whose error estimate exceeds its share of the global
budget is split, and all new panels are evaluated in one batched call.  An
interval starts as its four quarters, not as one panel (as vectorised quadgk
starts from a subdivision, Shampine 2008): nearly every interval splits its
first panel and then both halves anyway, and the quarters are exactly the
panels, in the order, that those two waves of splits make.

``quad_family`` integrates a family of m integrands f(x, k) over their own
intervals [a_k, b_k].  Each member is refined as if it were alone (its own
target max(rel_tol |I_k|, abs_tol), error budget and panel cap); only the
integrand calls are shared, one array call per wave for every panel of every
unconverged member, while a converged member's panels stay as they are.  A
nested integral thus costs one family per wave of its outer rule instead of
one scalar call per outer node.  ``quad_gk`` is the family of one.

A member's panels keep their own order inside the shared arrays and its sums
run over them in that order, and each panel's Kronrod and Gauss sums are
taken row by row (``einsum``, whose rows do not depend on the batch, where a
BLAS matrix-vector product's do), so a member's result is a pure function of
its own integrand values: bit-reproducible, and the same in any family as
alone.  A split that would take a member past ``MAX_PANELS`` raises before
any panel is evaluated, so a converged value never depends on ``MAX_PANELS``:
it is the value an uncapped run gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the panels one member may take, its four quarters included; read at each call
MAX_PANELS = 4096

# 21-point Kronrod nodes on [-1, 1] and the matching Gauss-10/Kronrod-21
# weights (QUADPACK dqk21 values); _XK_HALF[1::2] are the Gauss nodes.
_XK_HALF = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WK_HALF = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG_HALF = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])         # 21 nodes, ascending
WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])          # Kronrod weights
WG = np.zeros(XK.size)
WG[1::2] = np.concatenate([_WG_HALF, _WG_HALF[::-1]])         # Gauss weights at odd slots


@dataclass
class QuadResult:
    value: complex
    error: float
    neval: int
    converged: bool     # always True: quad_gk raises instead of returning unconverged


@dataclass
class FamilyResult:
    """Per-member value, error estimate and integrand evaluations, as arrays."""

    value: np.ndarray
    error: np.ndarray
    neval: np.ndarray


def quad_gk(f, a, b, rel_tol=1e-9, abs_tol=1e-300):
    """Integrate ``f`` over [a, b].

    ``f`` must accept an ndarray of nodes and return values of the same
    shape.  Returns a :class:`QuadResult` whose error estimate is at most
    ``max(rel_tol*|I|, abs_tol)``; raises RuntimeError when convergence would
    take more than ``MAX_PANELS`` panels, so non-convergence is never silent.
    """
    res = quad_family(lambda x, k: f(x), a, b, rel_tol, abs_tol)
    return QuadResult(res.value[0], res.error[0], int(res.neval[0]), True)


def quad_family(f, a, b, rel_tol=1e-9, abs_tol=1e-300):
    """Integrate the members ``f(., k)`` of a family over [a[k], b[k]].

    ``f(x, k)`` takes equal-shaped arrays of nodes and member indices and
    returns the values of member ``k[i]`` at ``x[i]``.  ``a`` and ``b``
    broadcast to the family size.  Each member starts as the four quarters
    of its interval, which count toward ``MAX_PANELS``.  Returns a
    :class:`FamilyResult`; raises RuntimeError naming the interval of a
    member whose next split would take it past ``MAX_PANELS`` or whose
    estimates are not finite.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    # the bounds themselves, not b - a, which warns when both are infinite
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("quad_family needs finite integration bounds")
    if not (b > a).all():
        raise ValueError("quad_family needs b > a")
    if not rel_tol >= 0.0:         # NaN fails every comparison
        raise ValueError(f"quad_family needs rel_tol >= 0, got {rel_tol!r}")
    if not abs_tol > 0.0:
        raise ValueError(f"quad_family needs abs_tol > 0, got {abs_tol!r}")
    m = a.size
    # each member starts as its quarters, in the order two waves of splits make
    lo, hi, owner = _bisect(*_bisect(a, b, np.arange(m)))
    vals, errs = _eval_panels(f, lo, hi, owner)

    while True:
        # a converged member's panels stay unsplit, so its sums stay as they are
        count = np.bincount(owner, minlength=m)
        total = _member_sum(vals, owner, m)
        err_total = np.bincount(owner, weights=errs, minlength=m).astype(float, copy=False)
        target = np.maximum(rel_tol * np.abs(total), abs_tol)
        todo = ~(err_total <= target)
        if not np.count_nonzero(todo):
            # the four quarters, then two panels for each split, which adds one
            return FamilyResult(total, err_total, XK.size * (2 * count - 4))
        bad = todo & ~np.isfinite(err_total + target)
        if np.count_nonzero(bad):
            _raise(a, b, bad, lambda j:
                   f"non-finite integrand or error estimate {err_total[j]:.3e}")

        # every unconverged member has a panel above its budget: the budgets
        # add up to half the target, which its error total exceeds
        split = todo[owner] & (errs > (target / (2.0 * count))[owner])
        grown = count + np.bincount(owner[split], minlength=m)
        if grown.max() > MAX_PANELS:
            _raise(a, b, grown > MAX_PANELS, lambda j:
                   f"{MAX_PANELS} panels cannot hold the {grown[j]} its next split needs "
                   f"(error {err_total[j]:.3e} > target {target[j]:.3e})")

        # a member's panels stay in the order [unsplit, left halves, right halves]
        new_lo, new_hi, new_owner = _bisect(lo[split], hi[split], owner[split])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi, new_owner)
        whole = ~split
        lo = np.concatenate([lo[whole], new_lo])
        hi = np.concatenate([hi[whole], new_hi])
        vals = np.concatenate([vals[whole], new_vals])
        errs = np.concatenate([errs[whole], new_errs])
        owner = np.concatenate([owner[whole], new_owner])


def _bisect(lo, hi, owner):
    """The halves of a batch of panels: every left half, then every right half."""
    mid = 0.5 * (lo + hi)
    return np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([owner, owner])


def _member_sum(vals, owner, m):
    """Per-member sums, each over the member's panels in their array order;
    floats also for no members, where numpy's bincount gives ints."""
    if not np.iscomplexobj(vals):
        return np.bincount(owner, weights=vals, minlength=m).astype(float, copy=False)
    out = np.empty(m, dtype=complex)
    out.real = np.bincount(owner, weights=vals.real, minlength=m)
    out.imag = np.bincount(owner, weights=vals.imag, minlength=m)
    return out


def _raise(a, b, bad, detail):
    """Raise for the first flagged member, naming its interval."""
    j = int(np.flatnonzero(bad)[0])
    raise RuntimeError(f"quad_family did not converge on [{float(a[j])!r}, {float(b[j])!r}]: "
                       + detail(j))


def _eval_panels(f, lo, hi, owner):
    """K21/G10 values and error estimates for a batch of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = np.multiply.outer(half, XK)
    nodes += mid[:, None]
    fv = np.asarray(f(nodes.ravel(), owner.repeat(XK.size))).reshape(nodes.shape)
    kronrod = np.einsum("ij,j->i", fv, WK) * half
    gauss = np.einsum("ij,j->i", fv, WG) * half
    return kronrod, np.abs(kronrod - gauss)
