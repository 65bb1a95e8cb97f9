#!/usr/bin/env python3
"""Repeat one workload with a new seed each run and report how steady
each metric is.

Run from the repository root:

    python3 fcbench/steady.py --workload serve-closed --runs 10

For every metric it prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)), the spread (q3 - q1) as a
share of the median, the bound BENCHMARK.json sets for it, and the spread
as a share of that bound. It also prints the share of failed operations
per run, which must be identical in every run. Every run lasts
BENCHMARK.json's run_seconds, the length its bounds were set for.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("need at least 4 runs for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    units = {}
    failed_shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, out.returncode), file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print("seed %d: wrong answers" % seed, file=sys.stderr)
            return 1
        failed_shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
              flush=True)

    print("\n%-30s %-9s %12s %12s %12s %8s %6s %8s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound", "/bound"))
    for name in sorted(values):
        vs = values[name]
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        rel = "%8.2f" % (spread / bound) if bound else "%8s" % "-"
        print("%-30s %-9s %12.5g %12.5g %12.5g %7.2f%% %6s %s" % (
            name, units[name], q2, q1, q3, 100 * spread, bound if bound else "-", rel))
    print("failed share per run: %s (%s)" % (
        sorted(set(failed_shares)), "identical" if len(set(failed_shares)) == 1 else "DIFFERS"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
