"""Argument rules, each stated once: ``positive(mu=mu)`` raises a ValueError naming
mu and a bad value unless mu, scalar or array, is finite and positive."""

import numbers

import numpy as np


def _rule(ok, text, dtype=float):
    def check(**args):
        for name, value in args.items():
            if isinstance(value, (float, complex)) and ok(value):   # the common case, no array
                continue
            v = np.asarray(value, dtype=dtype)
            if not ok(v).all():
                raise ValueError(f"{name} must be {text}, got {v[~ok(v)][0].item()!r}")
    return check


finite = _rule(np.isfinite, "finite", dtype=None)       # complex values too
positive = _rule(lambda v: (v > 0.0) & (v < np.inf), "positive (finite and positive only)")
nonnegative = _rule(lambda v: (v >= 0.0) & (v < np.inf), "finite and nonnegative")
positive_or_inf = _rule(lambda v: v > 0.0, "positive (+inf included)")


def integer(at_least=None, **args):
    """Raise a ValueError naming the first argument that is not an integer (a
    bool or an integral float is not one) or, given ``at_least``, is below it."""
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if at_least is not None and value < at_least:
            raise ValueError(f"{name} must be an integer >= {at_least}, got {value!r}")


def window(k=None, **args):
    """Raise a ValueError naming the first argument that is not k intervals (lo, hi), any
    number if k is None (a flat pair is none), finite with lo < hi, and its first bad one."""
    for name, got in args.items():
        w = np.asarray(got, dtype=float)
        pairs = w.ndim == 2 and w.shape[1] == 2 and k in (None, len(w))
        bad = w[~(np.isfinite(w).all(axis=1) & (w[:, 0] < w[:, 1]))].tolist() if pairs else [got]
        if bad:
            raise ValueError(f"{name} must be {f'{k} ' if k else ''}finite interval(s) (lo, hi) "
                             f"with lo < hi, got {tuple(bad[0]) if pairs else got!r}")
