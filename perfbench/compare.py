#!/usr/bin/env python3
"""Runs the benchmark in two sets and tells whether the sets agree.

    python3 perfbench/compare.py

Each set runs every workload of BENCHMARK.json once per seed (seeds 1..10)
for run_seconds with the end-to-end metrics (--trace 0), using one build.
Per workload and metric it prints each set's median, first and third
quartiles (statistics.quantiles, n=4) and spread (IQR over median). A metric
agrees when each set's spread is within its bound and the second set's
median differs from the first's by at most the bound, in either direction.
Every run must report correct=true and no failed operation. Raw results go
to .bench_build/compare-<time>.json. Exit status 1 when anything disagrees.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    results = {}  # (set, workload) -> list of result objects
    for s in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                t0 = time.time()
                r = run_once(workload, seed, spec["run_seconds"])
                results.setdefault((s, workload), []).append(r)
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d (%.0f s)"
                      % (s, workload, seed, r["correct"], r["attempted"],
                         r["failed"], time.time() - t0), file=sys.stderr)

    ok = True
    for workload in workloads:
        print("\n== %s" % workload)
        print("%-18s %5s %12s %12s %12s %8s %7s %s"
              % ("metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, workload)]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD")
                if first is None:
                    first = med
                elif abs(med - first) / first > bound:
                    verdict.append("MOVED %+.1f%%" % (100 * (med - first) / first))
                ok = ok and not verdict
                print("%-18s %5d %12.6g %12.6g %12.6g %7.2f%% %6.0f%% %s"
                      % (name, s, med, q1, q3, 100 * spread, 100 * bound,
                         " ".join(verdict) or "ok"))
        for s in range(SETS):
            rs = results[(s, workload)]
            if not all(r["correct"] and r["failed"] == 0 for r in rs):
                print("set %d: a run reported correct=false or a failed operation" % s)
                ok = False

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_build",
                        "compare-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(path, "w") as f:
        json.dump({"%d/%s" % k: v for k, v in results.items()}, f, indent=1)
    print("\nraw results: %s\n%s" % (os.path.relpath(path, ROOT),
                                      "AGREE" if ok else "DISAGREE"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
