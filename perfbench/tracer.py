"""Span tracer for the benchmark's traced passes.

Wrappers are installed from outside the package by rebinding the public
functions (and two class constructors and one method) of the ``hypcycles``
modules at run time; nothing under ``src/`` is edited.  Every call through a
wrapper records a span ``[name, start, end, parent, nested]`` in memory plus
the work counters of its layer.  A span's self time is its duration minus
the durations of its direct children (calls are single-threaded, so the
children of one span never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# counters that depend only on the inputs and the code, never on the
# machine: two runs of the same code and seed must report them identically
EXACT_REPEAT = (
    "quadrature.calls",
    "quadrature.neval",
    "transform.bessel_k.calls",
    "transform.bessel_k_scaled_batch.points",
    "transform.KScaledInterpolator.builds",
    "bounds.j_gamma_quadrature.calls",
    "bounds.j_gamma_quadrature.degenerate",
    "cycles.PreparedCycle.builds",
    "cycles.invariants.calls",
    "orbits.ball_enumerate.elements",
    "orbits.coset_reduce.left_classes",
    "orbits.coset_reduce.double_classes",
    "orbits.dedup_failures",
)

LAYERS = ("quadrature", "transform", "bounds", "cycles", "orbits",
          "decompose", "lorentz", "cli")


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """In-memory spans and counters; ``install`` / ``uninstall`` toggle the
    wrappers so untraced passes run the original functions."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        rec = [nid, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self._active[name] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._active[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def _wrap(self, fn, name, on_result=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            try:
                out = tracer.call(span, fn, args, kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer.counts, exc)
                raise
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, out)
            return out

        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every hypcycles module attribute bound to ``original`` at
        ``wrapper`` (modules import each other's functions by name)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypcycles" or mod_name.startswith("hypcycles.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, cls, attr, name, on_result=None):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, on_result))

    def install(self):
        mods = {m: importlib.import_module(f"hypcycles.{m}") for m in LAYERS}
        quad_defaults = {k: p.default for k, p in
                         inspect.signature(mods["quadrature"].quad_gk).parameters.items()}

        def quad_result(c, args, kwargs, res):
            rel_tol = _arg(args, kwargs, 3, "rel_tol", quad_defaults["rel_tol"])
            abs_tol = _arg(args, kwargs, 4, "abs_tol", quad_defaults["abs_tol"])
            c["quadrature.neval"] += int(res.neval)
            c["quadrature.nonconverged"] += int(not res.converged)
            ratio = float(res.error) / max(rel_tol * abs(res.value), abs_tol)
            c["quadrature.err_ratio_max"] = max(c["quadrature.err_ratio_max"], ratio)

        def batch_points(c, args, kwargs, out):
            c["transform.bessel_k_scaled_batch.points"] += int(np.size(out))

        def j_result(c, args, kwargs, out):
            c["bounds.j_gamma_quadrature.degenerate"] += int(bool(out.degenerate))

        def ball_result(c, args, kwargs, out):
            c["orbits.ball_enumerate.elements"] += len(out)

        def ball_error(c, exc):
            if isinstance(exc, RuntimeError) and "dedup ambiguity" in str(exc):
                c["orbits.dedup_failures"] += 1

        def coset_mode(args, kwargs):
            return f"orbits.coset_reduce.{_arg(args, kwargs, 2, 'mode', 'left')}"

        def coset_result(c, args, kwargs, out):
            mode = _arg(args, kwargs, 2, "mode", "left")
            c[f"orbits.coset_reduce.{mode}_classes"] += len(out.class_ids())

        functions = [
            ("quadrature", "quad_gk", quad_result),
            ("transform", "bessel_k", None),
            ("transform", "bessel_k_scaled", None),
            ("transform", "bessel_k_imag_scaled", None),
            ("transform", "bessel_k_scaled_batch", batch_points),
            ("transform", "gr_identity_3_471_9", None),
            ("transform", "gr_identity_6_726_4", None),
            ("transform", "gr_identity_6_592_12", None),
            ("transform", "selberg_transform_closed", None),
            ("transform", "selberg_transform_quadrature", None),
            ("bounds", "j_gamma_quadrature", j_result),
            ("bounds", "j_gamma_decay_check", None),
            ("bounds", "sigma0_model", None),
            ("bounds", "rescaled_limit_shape", None),
            ("cycles", "cycle_invariants", None),
            ("orbits", "ball_enumerate", ball_result),
            ("orbits", "coset_reduce", coset_result),
            ("orbits", "delta_spectrum", None),
            ("orbits", "counting_function", None),
            ("decompose", "ank", None),
            ("lorentz", "lorentz_inverse", None),
            ("lorentz", "require_lorentz", None),
            ("lorentz", "check_membership", None),
            ("lorentz", "spin_cover_so13", None),
            ("cli", "main", None),
        ]
        for layer, attr, on_result in functions:
            original = getattr(mods[layer], attr, None)
            if original is None:    # a silent skip would report its metrics as 0
                raise RuntimeError(f"hypcycles.{layer}.{attr} not found: update the "
                                   "function list in perfbench/tracer.py")
            name = coset_mode if attr == "coset_reduce" else f"{layer}.{attr}"
            on_error = ball_error if attr == "ball_enumerate" else None
            self._rebind(original, self._wrap(original, name, on_result, on_error))
        self._wrap_method(mods["transform"].KScaledInterpolator, "__init__",
                          "transform.KScaledInterpolator")
        self._wrap_method(mods["cycles"].PreparedCycle, "__init__", "cycles.PreparedCycle")
        self._wrap_method(mods["cycles"].PreparedCycle, "invariants", "cycles.invariants")

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def mark(self):
        """Start a new pass: clear counters, return the span index."""
        self.counts = Counter()
        return len(self.spans)

    def summary(self, first):
        """Per-layer metrics of the spans recorded since ``first``."""
        spans = self.spans[first:]
        child = np.zeros(len(spans))
        calls, incl, own = Counter(), Counter(), Counter()
        for nid, t0, t1, parent, nested in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        for i, (nid, t0, t1, parent, nested) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            own[name] += (t1 - t0) - child[i]
            if not nested:
                incl[name] += t1 - t0
        c = self.counts
        q_calls = calls["quadrature.quad_gk"]
        m = {
            "quadrature.calls": q_calls,
            "quadrature.neval": c["quadrature.neval"],
            "quadrature.neval_per_call": c["quadrature.neval"] / q_calls if q_calls else 0.0,
            "quadrature.nonconverged": c["quadrature.nonconverged"],
            "quadrature.err_ratio_max": float(c["quadrature.err_ratio_max"]),
            "transform.selberg_transform_quadrature.s": incl["transform.selberg_transform_quadrature"],
            "transform.selberg_transform_closed.s": incl["transform.selberg_transform_closed"],
            "transform.bessel_k.calls": calls["transform.bessel_k"],
            "transform.bessel_k.s": incl["transform.bessel_k"],
            "transform.bessel_k_imag_scaled.s": incl["transform.bessel_k_imag_scaled"],
            "transform.bessel_k_scaled_batch.points": c["transform.bessel_k_scaled_batch.points"],
            "transform.bessel_k_scaled_batch.s": incl["transform.bessel_k_scaled_batch"],
            "transform.KScaledInterpolator.builds": calls["transform.KScaledInterpolator"],
            "transform.KScaledInterpolator.build_s": incl["transform.KScaledInterpolator"],
            "transform.gr_identity.s": sum(incl[f"transform.gr_identity_{k}"]
                                           for k in ("3_471_9", "6_726_4", "6_592_12")),
            "bounds.j_gamma_quadrature.calls": calls["bounds.j_gamma_quadrature"],
            "bounds.j_gamma_quadrature.self_s": own["bounds.j_gamma_quadrature"],
            "bounds.j_gamma_quadrature.degenerate": c["bounds.j_gamma_quadrature.degenerate"],
            "bounds.sigma0_model.s": incl["bounds.sigma0_model"],
            "bounds.rescaled_limit_shape.s": incl["bounds.rescaled_limit_shape"],
            "cycles.PreparedCycle.builds": calls["cycles.PreparedCycle"],
            "cycles.PreparedCycle.build_s": incl["cycles.PreparedCycle"],
            "cycles.invariants.calls": calls["cycles.invariants"],
            "cycles.invariants.s": incl["cycles.invariants"],
            "orbits.ball_enumerate.s": incl["orbits.ball_enumerate"],
            "orbits.ball_enumerate.elements": c["orbits.ball_enumerate.elements"],
            "orbits.coset_reduce.left_s": incl["orbits.coset_reduce.left"],
            "orbits.coset_reduce.left_classes": c["orbits.coset_reduce.left_classes"],
            "orbits.coset_reduce.double_s": incl["orbits.coset_reduce.double"],
            "orbits.coset_reduce.double_classes": c["orbits.coset_reduce.double_classes"],
            "orbits.delta_spectrum.s": incl["orbits.delta_spectrum"],
            "orbits.dedup_failures": c["orbits.dedup_failures"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        return m

    def write(self, path):
        """Dump every recorded span as ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[n, t0, t1, p] for n, t0, t1, p, _ in self.spans]}, fh)
