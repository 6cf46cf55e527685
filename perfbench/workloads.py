"""Seeded inputs, work items and output checks of the three workloads.

``make_inputs(workload, seed)`` draws the inputs (cheap; timed as part of
set-up).  ``make_items(workload, inputs, workdir)`` turns them into a list of
``Item``: ``run()`` performs the work through the public ``hypcycles``
functions, always called as module attributes so the tracer's rebinding
reaches them, and returns None when the output passes its check or a string
saying what it missed.  Oracle values that need mpmath are computed by
``make_items`` outside the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypcycles import bounds as bd
from hypcycles import cli
from hypcycles import lorentz as lz
from hypcycles import orbits as ob
from hypcycles import transform as tr

WORKLOADS = ("transform-grid", "orbit-count", "asymptotics")

# a pass's time (rescaled, see reference.py) on the machine of
# perfbench/baseline.json; a run makes about --seconds worth of passes, at
# least MIN_PASSES
NOMINAL_PASS_S = {"transform-grid": 4.5, "orbit-count": 5.4, "asymptotics": 1.9}
MIN_PASSES = 3

CFG = lz.CycleConfig(3, 2)

# exact (elements, left classes, double classes) of the Picard ball, which
# conjugation by an element of the cycle subgroup preserves
PICARD_COUNTS = {6: (1454, 217, 46), 8: (9492, 1247, 214)}
CONJ_PARAM_MAX = 3.0
CONJ_GRID = 3

TRANSFORM_TOL = 1e-6
SIGMA0_TOL = 1e-5
GR_TOL = 1e-7
BESSEL_ABS_TOL = 1e-8
LIMIT_LOG_TOL = 1e-8


@dataclass
class Item:
    name: str
    run: Callable[[], "str | None"]


def pass_count(workload, seconds):
    """Number of untraced passes of a run: fixed by the workload and the
    run length, never by the clock."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def make_inputs(workload, seed):
    rng = np.random.default_rng(seed)
    if workload == "transform-grid":
        return _transform_inputs(rng)
    if workload == "orbit-count":
        return _orbit_inputs(rng)
    if workload == "asymptotics":
        return _asymptotics_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def make_items(workload, inputs, workdir):
    if workload == "transform-grid":
        return _transform_items(inputs)
    if workload == "orbit-count":
        return _orbit_items(inputs, workdir)
    return _asymptotics_items(inputs)


# ---------------------------------------------------------------------------
# transform-grid: closed form vs nested quadrature, like acceptance c1


def _transform_inputs(rng):
    """60 points stratified like the c1 grid: d in {3,4,5} x 4 log-spaced mu
    strata over [0.5, 5] x 5 nu strata (three real thirds of [0, 0.9 rho],
    two imaginary halves of [0, 2] i), one seeded draw per cell."""
    mu_edges = np.log(np.geomspace(0.5, 5.0, 5))
    points = []
    for d in (3, 4, 5):
        rho = (d - 1) / 2.0
        for k in range(4):
            for s in range(5):
                mu = float(np.exp(rng.uniform(mu_edges[k], mu_edges[k + 1])))
                if s < 3:
                    nu = float(rng.uniform(s, s + 1) * 0.3 * rho)
                else:
                    nu = complex(0.0, rng.uniform(s - 3, s - 2))
                points.append((d, mu, nu))
    return points


def _transform_items(points):
    def item(d, mu, nu):
        def run():
            hc = tr.selberg_transform_closed(d, mu, nu)
            hq = tr.selberg_transform_quadrature(d, mu, nu, rel_tol=1e-10)
            rel = abs(hc - hq) / max(abs(hc), 1e-300)
            if not rel <= TRANSFORM_TOL:
                return f"closed vs quadrature rel err {rel:.2e} > {TRANSFORM_TOL}"
            return None
        return Item(f"transform d={d} mu={mu:.4f} nu={nu}", run)

    return [item(*p) for p in points]


# ---------------------------------------------------------------------------
# orbit-count: the CLI count pipeline, plus conjugated Picard sets


def _orbit_inputs(rng):
    """A cycle direction u for the length-8 spectrum and the CLI item, and
    CONJ_GRID**2 conjugators h = a_x n_v of the cycle subgroup with (x, v)
    in [-3, 3]^2, one seeded draw in each cell of a CONJ_GRID x CONJ_GRID
    grid.  Stratifying both parameters keeps the share of large
    conjugators, to which the dedup and group-invariant tolerances are
    sensitive, and with it the work of a pass, nearly equal across seeds."""
    u = float(rng.uniform(-1.0, 1.0))
    edges = np.linspace(-CONJ_PARAM_MAX, CONJ_PARAM_MAX, CONJ_GRID + 1)
    conj = [(float(rng.uniform(edges[i], edges[i + 1])),
             float(rng.uniform(edges[j], edges[j + 1])))
            for i in range(CONJ_GRID) for j in range(CONJ_GRID)]
    return {"u": u, "conj": conj}


def _count_pipeline(gens, max_len, u):
    """ball -> left classes -> double classes -> delta spectrum -> pi(x);
    returns a mismatch message or None."""
    want_ball, want_left, want_double = PICARD_COUNTS[max_len]
    ball = ob.ball_enumerate(gens, max_len)
    left = ob.coset_reduce(ball, CFG, mode="left")
    double = ob.coset_reduce(ball, CFG, mode="double")
    spec = ob.delta_spectrum(double, [u], CFG)
    deltas = [e.delta for e in spec.entries]
    pts, _ = ob.counting_function(spec, np.geomspace(1.0, max(deltas) * 1.05, 60))
    got = (len(ball), len(left.class_ids()), len(double.class_ids()),
           len(spec.entries), pts[-1][1])
    want = (want_ball, want_left, want_double, want_double - 1, want_double - 1)
    if got != want:
        return f"(ball, left, double, spectrum, pi(max)) = {got}, expected {want}"
    if not all(np.isfinite(deltas)) or min(deltas) < 1.0 - 1e-9:
        return "delta spectrum has a value below 1 or not finite"
    return None


def _orbit_items(inputs, workdir):
    u = inputs["u"]
    picard = ob.picard_generators()
    items = [Item("picard length 8", lambda: _count_pipeline(picard, 8, u))]

    def conjugated(x, v):
        def run():
            h = lz.make_boost(x, 3) @ lz.make_unipotent(np.array([v, 0.0]), 3)
            h_inv = lz.lorentz_inverse(h)
            gens = ob.GeneratorSet(labels=picard.labels,
                                   matrices=tuple(h_inv @ g @ h for g in picard.matrices))
            return _count_pipeline(gens, 6, u)
        return Item(f"picard conjugated by a({x:.3f}) n({v:.3f}), length 6", run)

    items += [conjugated(x, v) for x, v in inputs["conj"]]

    gens_path = workdir / "picard.json"
    gens_path.parent.mkdir(parents=True, exist_ok=True)
    gens_path.write_text(json.dumps(picard.to_json()))
    argv = ["count", "--gens", str(gens_path), "--max-len", "6", "--u", repr(u),
            "--format", "json"]

    def cli_count():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        classes = json.loads(out.getvalue())["classes"] if rc == 0 else None
        if rc != 0 or classes != PICARD_COUNTS[6][2] - 1:
            return f"hypcycles count: exit {rc}, classes {classes}"
        return None

    items.append(Item("cli count, length 6", cli_count))
    return items


# ---------------------------------------------------------------------------
# asymptotics: J decay (c6), main-term model (c7), limit shape, GR identities
# (c2), imaginary-order Bessel sweep (c9)


def _asymptotics_inputs(rng):
    """Seeded Gradshteyn-Ryzhik draws, ten per identity, from the c2
    distributions; the other items use the fixed acceptance grids."""
    gr = []
    for _ in range(10):
        al, be = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        nu = rng.uniform(-2.5, 2.5) if rng.uniform() < 0.5 else 1j * rng.uniform(0.0, 2.5)
        gr.append(("gr_identity_3_471_9", (al, be, nu)))
    for _ in range(10):
        a, b = rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5)
        c, nu = rng.uniform(0.0, 2.5), rng.uniform(-1.5, 1.5)
        gr.append(("gr_identity_6_726_4", (a, b, c, nu, (-1) ** int(rng.integers(2)))))
    for _ in range(10):
        gr.append(("gr_identity_6_592_12", (rng.uniform(0.4, 2.5), rng.uniform(-2.0, 2.0),
                                            rng.uniform(0.5, 2.5))))
    return {"gr": gr}


J_MUS = (5.0, 10.0, 20.0, 40.0)
LIMIT_MUS = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
SWEEP_R = np.linspace(5.0, 40.0, 71)


def _asymptotics_items(inputs):
    import mpmath  # oracles only: kept out of the set-up probe's imports

    mpmath.mp.dps = 30
    items = []

    T, U, S = ob.picard_generators().matrices
    reps = {"near": U @ S @ U, "mid": U @ U @ S @ U, "far": U @ S @ U @ U}

    def j_series(g):
        def run():
            res = {mu: bd.j_gamma_quadrature(g, ((-3.0, 3.0),), CFG, mu, 0.3) for mu in J_MUS}
            if any(r.degenerate or not np.isfinite(r.log_value) for r in res.values()):
                return "J degenerate or not finite"
            _, mono = bd.j_gamma_decay_check(res, slack_degree=(CFG.n + 2) / 2.0)
            return None if mono else "log J + mu sqrt(delta_min)/2 not non-increasing"
        return run

    items += [Item(f"J decay {name}", j_series(g)) for name, g in reps.items()]

    def sigma0(cfg, mu, nu, box):
        def run():
            err = bd.sigma0_model(cfg, mu, nu, box)[2]
            return None if err <= SIGMA0_TOL else f"sigma0 rel err {err:.2e} > {SIGMA0_TOL}"
        return run

    for d, n in ((3, 2), (4, 2), (4, 3)):
        cfg = lz.CycleConfig(d, n)
        box = bd.BoxDomain(v_bounds=tuple((0.0, 1.0) for _ in range(n - 1)), r_bounds=(1.0, 2.0))
        for mu in (1.0, 2.0):
            for nu in (0.0, 0.3):
                items.append(Item(f"sigma0 d={d} n={n} mu={mu} nu={nu}",
                                  sigma0(cfg, mu, nu, box)))

    box = bd.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1.0, 2.0))
    limit_ref = [(CFG.n - CFG.d) * math.log(2.0) + math.log(box.i_nu(0.0))
                 + 0.5 * math.log(2.0 * mu / math.pi)
                 + float(mpmath.log(mpmath.besselk(0, mu)) + mu) for mu in LIMIT_MUS]

    def limit_shape():
        rows = bd.rescaled_limit_shape(CFG, LIMIT_MUS, 0.0, box)
        worst = max(abs(r.value_log - ref) for r, ref in zip(rows, limit_ref))
        if worst > LIMIT_LOG_TOL:
            return f"rescaled value_log off the mpmath oracle by {worst:.2e}"
        if bd.plateau_gap(rows, 40.0, 60.0) >= 1e-2 or bd.envelope_fraction(rows[-1]) >= 1e-2:
            return "plateau gap or envelope fraction not below 1%"
        return None

    items.append(Item("rescaled limit shape", limit_shape))

    def gr(func, args):
        def run():
            err = getattr(tr, func)(*args)[2]
            return None if err <= GR_TOL else f"identity rel err {err:.2e} > {GR_TOL}"
        return run

    items += [Item(f"{func}{args}", gr(func, args)) for func, args in inputs["gr"]]

    def sweep(r, ref):
        def run():
            got = tr.bessel_k_imag_scaled(r, 1.0)
            gap = abs(got - ref)
            return None if gap <= BESSEL_ABS_TOL else f"off the mpmath oracle by {gap:.2e}"
        return run

    for r in SWEEP_R:
        r = float(r)
        ref = float(mpmath.re(mpmath.besselk(1j * r, 1) * mpmath.exp(mpmath.pi * r / 2)))
        items.append(Item(f"exp(pi r/2) K_ir(1), r={r:.2f}", sweep(r, ref)))
    return items
