"""Adaptive Gauss-Kronrod quadrature with vectorized, complex-capable integrands.

A single (G7, K15) panel rule (QUADPACK dqk15) is refined by bisection in
waves: every panel whose error estimate exceeds its share of the global
budget is split, and all new panels are evaluated in one batched call.  An
interval starts as its two halves, not as one panel (as vectorised quadgk
starts from a subdivision, Shampine 2008): nearly every interval splits its
first panel anyway, and the halves are exactly the panels that split makes.

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
alone.  A split that would take a member past ``max_panels`` raises before
any panel is evaluated, so a converged value never depends on ``max_panels``:
it is the value an uncapped run gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and the matching Gauss-7/Kronrod-15
# weights (QUADPACK dqk15 values).
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

XK = np.concatenate([-_XK_HALF[:7], _XK_HALF[::-1]])          # 15 nodes, ascending
WK = np.concatenate([_WK_HALF[:7], _WK_HALF[::-1]])           # Kronrod weights
WG = np.zeros(15)
WG[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])   # Gauss weights at odd slots


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


def quad_gk(f, a, b, rel_tol=1e-9, abs_tol=1e-300, max_panels=4096):
    """Integrate ``f`` over [a, b].

    ``f`` must accept an ndarray of nodes and return values of the same
    shape.  Returns a :class:`QuadResult` whose error estimate is at most
    ``max(rel_tol*|I|, abs_tol)``; raises RuntimeError when convergence would
    take more than ``max_panels`` panels, so non-convergence is never silent.
    """
    res = quad_family(lambda x, k: f(x), a, b, rel_tol, abs_tol, max_panels)
    return QuadResult(res.value[0], res.error[0], int(res.neval[0]), True)


def quad_family(f, a, b, rel_tol=1e-9, abs_tol=1e-300, max_panels=4096):
    """Integrate the members ``f(., k)`` of a family over [a[k], b[k]].

    ``f(x, k)`` takes equal-shaped arrays of nodes and member indices and
    returns the values of member ``k[i]`` at ``x[i]``.  ``a`` and ``b``
    broadcast to the family size.  Each member starts as the two halves of
    its interval, which count toward ``max_panels`` (at least 2).  Returns a
    :class:`FamilyResult`; raises RuntimeError naming the interval of a
    member whose next split would take it past ``max_panels`` or whose
    estimates are not finite.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    width = b - a               # not finite when a bound is not
    if not np.isfinite(width).all():
        raise ValueError("quad_family needs finite integration bounds")
    if (width <= 0.0).any():
        raise ValueError("quad_family needs b > a")
    if max_panels < 2:
        raise ValueError("quad_family needs max_panels >= 2")
    m = a.size
    # each member starts as its two halves, in the order a split of [a, b] makes
    owner = np.tile(np.arange(m), 2)
    mid = 0.5 * (a + b)
    lo = np.concatenate([a, mid])
    hi = np.concatenate([mid, b])
    vals, errs = _eval_panels(f, lo, hi, owner)

    while True:
        # a converged member's panels stay unsplit, so its sums stay as they are
        count = np.bincount(owner, minlength=m)
        total = _member_sum(vals, owner, m)
        err_total = np.bincount(owner, weights=errs, minlength=m)
        target = np.maximum(rel_tol * np.abs(total), abs_tol)
        todo = ~(err_total <= target)
        if not np.count_nonzero(todo):
            # the two halves, then two panels for each split, which adds one
            return FamilyResult(total, err_total, 30 * (count - 1))
        bad = todo & ~np.isfinite(err_total + target)
        if np.count_nonzero(bad):
            _raise(a, b, bad, lambda j:
                   f"non-finite integrand or error estimate {err_total[j]:.3e}")

        # every unconverged member has a panel above its budget: the budgets
        # add up to half the target, which its error total exceeds
        split = todo[owner] & (errs > (target / (2.0 * count))[owner])
        grown = count + np.bincount(owner[split], minlength=m)
        if grown.max() > max_panels:
            _raise(a, b, grown > max_panels, lambda j:
                   f"{max_panels} panels cannot hold the {grown[j]} its next split needs "
                   f"(error {err_total[j]:.3e} > target {target[j]:.3e})")

        # a member's panels stay in the order [unsplit, left halves, right halves]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_owner = np.concatenate([owner[split]] * 2)
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi, new_owner)
        whole = ~split
        lo = np.concatenate([lo[whole], new_lo])
        hi = np.concatenate([hi[whole], new_hi])
        vals = np.concatenate([vals[whole], new_vals])
        errs = np.concatenate([errs[whole], new_errs])
        owner = np.concatenate([owner[whole], new_owner])


def _member_sum(vals, owner, m):
    """Per-member sums, each over the member's panels in their array order."""
    if not np.iscomplexobj(vals):
        return np.bincount(owner, weights=vals, minlength=m)
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
    """K15/G7 values and error estimates for a batch of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = np.multiply.outer(half, XK)
    nodes += mid[:, None]
    fv = np.asarray(f(nodes.ravel(), owner.repeat(XK.size))).reshape(nodes.shape)
    k15 = np.einsum("ij,j->i", fv, WK) * half
    g7 = np.einsum("ij,j->i", fv, WG) * half
    errs = np.abs(k15 - g7)
    return k15, errs
