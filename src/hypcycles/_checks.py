"""Scalar-argument rules, each stated once: ``positive(mu=mu)`` raises a ValueError
naming mu and a bad value unless mu, scalar or array, is finite and positive."""

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
