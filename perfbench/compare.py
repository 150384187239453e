#!/usr/bin/env python3
"""Compares two sets of runs saved by perfbench/repeat.py --out.

Usage, from the repository root:

    python3 perfbench/compare.py [--agree] BASE.json NEW.json

For every workload in both sets and every end-to-end metric of
BENCHMARK.json it prints both medians, the change in the metric's worse
direction and the change in either direction, each as a share of the base
median, both spreads, and the bound. It exits 1 when the change in the
worse direction (with --agree, in either direction) exceeds its bound,
when any spread other than setup_s's exceeds its bound, or when the share
of failed transactions differs between the sets. Use --agree to check that
two sets of the same code agree; without it, to check that a change made
nothing worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main():
    args = sys.argv[1:]
    agree = "--agree" in args
    if agree:
        args.remove("--agree")
    if len(args) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args[0]) as f:
        base = json.load(f)["workloads"]
    with open(args[1]) as f:
        new = json.load(f)["workloads"]
    bad = 0
    print("%-16s %-16s %12s %12s %8s %8s %8s %8s %6s" %
          ("workload", "metric", "base", "new", "worse", "|diff|", "spread0",
           "spread1", "bound"))
    for w in sorted(set(base) & set(new)):
        b_runs, n_runs = base[w], new[w]
        if failed_share(b_runs) != failed_share(n_runs):
            print("%-16s failed share differs: %r vs %r" %
                  (w, failed_share(b_runs), failed_share(n_runs)))
            bad += 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm) / bm if m["better"] == "lower" else (bm - nm) / bm
            diff = abs(nm - bm) / bm
            s0, s1 = spread(bv), spread(nv)
            flags = []
            if worse > bound:
                flags.append("WORSE")
            elif agree and diff > bound:
                flags.append("DIFF")
            if name != "setup_s" and max(s0, s1) > bound:
                flags.append("SPREAD")
            bad += bool(flags)
            print("%-16s %-16s %12.6g %12.6g %8.4f %8.4f %8.4f %8.4f %6.2f %s"
                  % (w, name, bm, nm, worse, diff, s0, s1, bound,
                     " ".join(flags)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
