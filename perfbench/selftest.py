#!/usr/bin/env python3
"""The benchmark's own test, on the tiny world (a few seconds a run).

    python3 perfbench/selftest.py [--binary PATH]

For every workload, with --trace 0 and --trace 1: the run exits 0, reports
correct=true with no failed operation, and prints exactly the metrics that
BENCHMARK.json names for that mode, each with its unit. Then, per workload,
a run with one corrupted answer (--corrupt) must fail. Finally run.py, in a
directory that holds only BENCHMARK.json and perfbench/, must exit non-zero
without printing a result. Without --binary the benchmark is built through
run.py first.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, **kwargs):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600, **kwargs)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return out.returncode, result, out.stderr


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    if args.binary:
        binary = [args.binary]
    else:
        binary = [sys.executable, os.path.join(HERE, "run.py")]
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(binary + [
                "--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny"], cwd=ROOT)
            what = "%s --trace %d" % (name, trace)
            check(code == 0 and result is not None and result["correct"],
                  what + ": exits 0 with correct=true")
            if result is None:
                sys.stderr.write(err[-2000:])
                continue
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  what + ": attempted %d, failed %d" % (result["attempted"],
                                                       result["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, what + ": prints exactly the %s metrics" % key)
            if got != want:
                print("     missing %s, extra %s" % (sorted(set(want) - set(got)),
                                                    sorted(set(got) - set(want))))

        code, result, _ = run(binary + [
            "--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--tiny", "--corrupt"], cwd=ROOT)
        check(code != 0 and (result is None or not result["correct"]),
              name + ": a corrupted answer fails the run")

    # A checkout without the program's sources cannot build the benchmark.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run([sys.executable, "perfbench/run.py", "--workload",
                           "serve_zipf", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    check(code != 0 and result is None,
          "run.py without the sources exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
