#!/usr/bin/env python3
"""Runs workloads several times on consecutive seeds and summarises them.

Usage, from the repository root:

    python3 perfbench/repeat.py [--workload NAME ...] [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1] [--out FILE]

Without --workload every workload of BENCHMARK.json runs; --seconds
defaults to its run_seconds. For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's
bound. --out saves every run's JSON result for perfbench/compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(workload, runs, bounds):
    print("%s: %d runs, seeds %s" % (workload, len(runs),
                                     ",".join(str(r["seed"]) for r in runs)))
    failed = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("  failed/attempted: %s" % ", ".join("%d/%d" % f for f in failed))
    print("  %-40s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        bound = bounds.get(name)
        print("  %-40s %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, med, q1, q3, spread, "-" if bound is None else bound))


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        runs = [run_once(w, args.seed0 + i, args.seconds, args.trace)
                for i in range(args.runs)]
        saved["workloads"][w] = runs
        report(w, runs, bounds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
