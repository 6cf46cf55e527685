"""Scalar-argument rules, each stated once: ``positive(mu=mu)`` raises a ValueError
naming mu and a bad value unless mu, scalar or array, is finite and positive."""

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


def integer(at_least=None, **args):
    """Raise a ValueError naming the first argument that is not an integer (a
    bool or an integral float is not one) or, given ``at_least``, is below it."""
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if at_least is not None and value < at_least:
            raise ValueError(f"{name} must be an integer >= {at_least}, got {value!r}")
