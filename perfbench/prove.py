"""Steadiness and repeatability check of the benchmark.

    python3 perfbench/prove.py [--seeds 1-10] [--workloads orbit-count] [--compare FILE] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, for
BENCHMARK.json's ``run_seconds``, and prints each end-to-end metric's median,
quartiles and quartile spread (q3 - q1) / median against its bound.  It then
runs ``run.py --trace 1`` twice per workload on the first seed and requires
every exact-repeat counter of ``tracer.EXACT_REPEAT`` to match.  ``--compare``
takes an earlier report written by ``--out`` and requires that no median is
worse than the earlier one by more than its bound, that every seed attempted
and failed as many items as before and that the exact-repeat counters are the
same.  ``--out`` merges the results and the environment into
a JSON file.  Exits 1 when a run is incorrect, a spread exceeds its bound, a
median moved too far or a counter differs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import EXACT_REPEAT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"run.py failed on {workload} seed {seed} (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "1 (run.py pins OMP/OPENBLAS/MKL_NUM_THREADS)",
        "machine": platform.machine(),
    }


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--compare", type=Path)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    ok = True
    report = {"environment": environment(), "run_seconds": seconds,
              "exact_repeat_counters": list(EXACT_REPEAT), "workloads": {}}
    for workload in args.workloads.split(","):
        values, correct, failed, attempted = {}, True, [], []
        for seed in args.seeds:
            res = run(workload, seed, seconds, 0)
            correct &= res["correct"]
            failed.append(res["failed"])
            attempted.append(res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        entry = {"seeds": args.seeds, "correct": correct, "attempted": attempted,
                 "failed": failed, "fail_frac": sum(failed) / sum(attempted), "metrics": {}}
        ok &= correct
        before = earlier.get(workload)
        if before and before["seeds"] == args.seeds:
            same = (before["attempted"], before["failed"]) == (attempted, failed)
            ok &= same
            print("  attempted and failed per seed " + ("match" if same else "DIFFER from")
                  + " the earlier report")
        for name, vals in values.items():
            bound = metrics[name]["bound"]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bound, "values": vals}
            flag = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
            ok &= spread <= bound
            line = (f"  {name:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                    f"spread {spread:.3f} (bound {bound})  {flag}")
            if before:
                old = before["metrics"][name]["median"]
                worse = (med / old - 1.0) if metrics[name]["better"] == "lower" else (1.0 - med / old)
                ok &= worse <= bound
                line += f"; vs earlier {old:.4f}: {worse:+.3f} " + ("ok" if worse <= bound else "WORSE")
            print(line)
        print(f"  correct {correct}, fail_frac {entry['fail_frac']:.4f}")

        first, second = (run(workload, args.seeds[0], seconds, 1)["metrics"] for _ in range(2))
        counters = {k: first[k]["value"] for k in EXACT_REPEAT}
        diff = [k for k in EXACT_REPEAT if counters[k] != second[k]["value"]]
        if before and before["exact_repeat"]["seed"] == args.seeds[0]:
            diff += [f"{k} (vs earlier)" for k in EXACT_REPEAT
                     if counters[k] != before["exact_repeat"]["counters"][k]]
        entry["exact_repeat"] = {"seed": args.seeds[0], "counters": counters,
                                 "identical": not diff}
        ok &= not diff
        print(f"  exact-repeat counters, two traced runs of seed {args.seeds[0]}"
              + (" and the earlier report" if before else "") + ": "
              + ("identical" if not diff else f"DIFFER in {diff}"), flush=True)
        report["workloads"][workload] = entry

    if args.out:
        old = json.loads(args.out.read_text()) if args.out.exists() else {}
        old.update({k: v for k, v in report.items() if k != "workloads"})
        old.setdefault("workloads", {}).update(report["workloads"])
        args.out.write_text(json.dumps(old, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
