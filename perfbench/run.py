"""hypcycles benchmark: one workload in a closed loop, in one process.

    python3 perfbench/run.py --workload transform-grid --seed 1 --seconds 20 --trace 0

Workloads are ``transform-grid``, ``orbit-count`` and ``asymptotics`` (see
``workloads.py``).  A pass runs every item of the workload once, each item
starting when the previous one has finished; passes repeat the same seeded
inputs.  The number of passes is fixed by the workload and ``--seconds``
(``workloads.pass_count``), so the same seed always attempts the same items.
Every item's output is checked in every pass; an item that raises or misses
its check counts as failed, and a miss also makes ``correct`` false.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (time of one pass: the sum over items of each item's median time
across the passes), ``setup_s`` (median over SETUP_REPEATS fresh
interpreters importing hypcycles and drawing the inputs, spread between the
items of the run) and ``peak_rss_mb``.  Both times are rescaled to an
uncontended host by the reference kernel timed between items
(``reference.py``); the raw times are printed above the result line.  With ``--trace 1`` untraced and traced passes alternate and
it carries the per-layer metrics of ``tracer.py``, the import breakdown from
``-X importtime`` and the tracing overhead; the spans are written to
``.perfbench_out/``.  The package is imported from ``src/`` of the checkout
holding this file, and BLAS runs single-threaded.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

# numpy is first imported inside main(), and the set-up probes inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
MIN_TRACED_PASSES = 2


def parse_importtime(stderr):
    """(cumulative import of hypcycles, summed self time of scipy modules),
    in seconds, from ``-X importtime`` output."""
    total = scipy = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "hypcycles":
            total = int(cum_us) * 1e-6
        if name == "scipy" or name.startswith("scipy."):
            scipy = (scipy or 0.0) + int(self_us) * 1e-6
    if total is None:
        raise RuntimeError("hypcycles import not found in -X importtime output")
    return total, scipy or 0.0


def setup_probe(workload, seed):
    """One fresh interpreter importing hypcycles and drawing the inputs;
    returns (hypcycles import, scipy import) in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-X", "importtime", str(HERE / "setup_child.py"), workload, str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return parse_importtime(proc.stderr)


def run_item(item, failures, misses, tracer=None):
    """Run one item; with a tracer it is a root span.  Returns True when the
    item failed."""
    try:
        miss = tracer.call("bench.item", item.run, (), {}) if tracer else item.run()
    except Exception as exc:  # an item that raises is a failure, not a crash
        key = f"{type(exc).__name__}: {str(exc)[:80]}"
        if key not in failures:
            traceback.print_exc(limit=3, file=sys.stderr)
        failures[key] += 1
        return True
    if miss is not None:
        misses[f"{item.name}: {miss}"] += 1
    return miss is not None


def pass_time(passes):
    """Time of one pass: the sum over items of each item's median time
    across ``passes`` (one list of item times per pass)."""
    return sum(map(statistics.median, zip(*passes)))


def tail_percentile(walls):
    """The highest percentile with at least ten passes beyond it, with the
    sample count."""
    n = len(walls)
    if n < 11:
        return f"{n} passes (max {max(walls):.4f} s; no percentile has ten passes beyond it)"
    pct = int(100 * (n - 10) / n)
    value = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
    return f"{n} passes, p{pct} {value:.4f} s"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hypcycles" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hypcycles package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import hypcycles

    if Path(hypcycles.__file__).resolve().parent != SRC / "hypcycles":
        sys.stderr.write(f"error: imported hypcycles from {hypcycles.__file__}, not {SRC}\n")
        return 2
    import reference
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    items = workloads.make_items(args.workload, inputs, OUT)

    # untraced passes only, or untraced and traced passes alternating; the
    # plan is fixed by the workload and --seconds, never by the clock, so
    # the same seed attempts and fails the same items on every run
    n_passes = workloads.pass_count(args.workload, args.seconds)
    if args.trace:
        n_passes = max(n_passes, 2 * MIN_TRACED_PASSES)
    plan = [bool(args.trace) and k % 2 == 1 for k in range(n_passes)]
    # the set-up probes are spread over the run, between items, so their
    # median samples the whole run rather than one stretch of it
    steps = len(plan) * len(items)
    probe_steps = [int((k + 0.5) * steps / SETUP_REPEATS) for k in range(SETUP_REPEATS)]
    probes = []

    tracer = tracing.Tracer()
    clock = reference.Clock()
    passes = {False: [], True: []}   # rescaled item times, per pass
    raw_walls = []                   # untraced pass wall times
    layer_runs = []
    failures, misses = Counter(), Counter()
    attempted = failed = 0
    for k, traced in enumerate(plan):
        times, raw = [], 0.0
        for i, item in enumerate(items):
            while probe_steps and probe_steps[0] == k * len(items) + i:
                probe_steps.pop(0)
                probes.append(clock.time(setup_probe, args.workload, args.seed, in_process=False))
            if traced:
                tracer.install()
                if i == 0:
                    first = tracer.mark()
            try:
                # a traced item's spans include the kernel samples taken
                # during it, about 3% of their time
                miss, wall, scaled = clock.time(
                    run_item, item, failures, misses, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            times.append(scaled)
            raw += wall
            failed += miss
        passes[traced].append(times)
        if traced:
            layer_runs.append(tracer.summary(first))
        else:
            raw_walls.append(raw)
        attempted += len(items)
    setup_s = statistics.median(scaled for _, _, scaled in probes)
    setup_raw_s = statistics.median(wall for _, wall, _ in probes)
    import_total_s = statistics.median(out[0] for out, _, _ in probes)
    import_scipy_s = statistics.median(out[1] for out, _, _ in probes)

    correct = not misses
    for key, n in sorted(misses.items()):
        sys.stderr.write(f"MISS x{n}: {key}\n")
    for key, n in sorted(failures.items()):
        sys.stderr.write(f"RAISED x{n}: {key}\n")

    wall_s = pass_time(passes[False])
    print(f"{args.workload} seed {args.seed}: {len(items)} items/pass, "
          f"{attempted} attempted, {failed} failed")
    print(f"wall_s {wall_s:.4f} s rescaled; raw pass median {statistics.median(raw_walls):.4f} s, "
          f"{tail_percentile(raw_walls)}")
    print(f"setup_s {setup_s:.4f} s rescaled, raw {setup_raw_s:.4f} s, median of "
          f"{SETUP_REPEATS} fresh interpreters")

    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        for name in tracing.EXACT_REPEAT:
            values = {run[name] for run in layer_runs}
            if len(values) > 1:
                correct = False
                sys.stderr.write(f"exact-repeat counter {name} differs between "
                                 f"traced passes: {sorted(values)}\n")
        per_layer = {k: statistics.median(run[k] for run in layer_runs) if k.endswith("_s")
                     or k.endswith(".s") else layer_runs[0][k] for k in layer_runs[0]}
        traced_s = pass_time(passes[True])
        per_layer.update({
            "items.fail_frac": failed / attempted,
            "import.total_s": import_total_s,
            "import.scipy_s": import_scipy_s,
            "trace.untraced_wall_s": wall_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_frac": traced_s / wall_s - 1.0,
        })
        units = metric_units()
        if set(units) != set(per_layer):
            raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(per_layer))}")
        metrics = {k: (v, units[k]) for k, v in per_layer.items()}
        for layer in tracing.LAYERS:
            print(f"  {layer:<11} self {per_layer[f'{layer}.self_s']:.4f} s")
        print(f"  tracing overhead {per_layer['trace.overhead_frac']:+.2%} "
              f"({traced_s:.4f} s traced vs {wall_s:.4f} s untraced)")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def metric_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
