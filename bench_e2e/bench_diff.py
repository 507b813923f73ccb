#!/usr/bin/env python3
"""Compare two sets of bench_e2e run records.

    python3 bench_e2e/bench_diff.py BASE_DIR NEW_DIR

Each directory holds the files `run.py --json FILE` (or `bench_e2e --json
FILE`) wrote, one per run, any mix of workloads, seeds and traced runs.
For every workload and metric the report gives each side's median and
quartiles. End-to-end metrics also get a verdict against the bound
BENCHMARK.json fixes for them:

  unresolved    a side's spread (quartile distance / median) exceeds the
                bound, and not every new run beats every base run
  improved      at least 10 index-paired runs, new wins at least 9 in 10
                of them (ties count for neither), and the medians differ
                by more than the base quartile distance
  regressed     the new median is worse than the base median by more than
                the bound
  within bound  otherwise

Per-layer metrics have no bound and are reported without a verdict, from
the traced runs when a side has any. When a side has traced and untraced
runs of a workload, the trace overhead is the relative drop of the traced
runs' throughput_kops from the untraced runs'.
The exit code is 1 when a verdict is "regressed" or a run was incorrect.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A gain needs at least this many pairs: host drift between two sets of
# five runs of the same code has made every pair favour one side.
MIN_PAIRS = 10
bad_runs = []


def load(directory):
    """workload -> {"traced": [...], "untraced": [...]} of run records."""
    runs = defaultdict(lambda: {"traced": [], "untraced": []})
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        sys.exit("bench_diff: no *.json run records in " + directory)
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        if not record["correct"] or record["failed"]:
            bad_runs.append("%s: correct=%s failed=%d"
                            % (path, record["correct"], record["failed"]))
        runs[record["workload"]][
            "traced" if record["traced"] else "untraced"].append(record)
    return runs


def values(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def summary(vals):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, new, better, bound):
    bm, bq1, bq3 = summary(base)
    nm, nq1, nq3 = summary(new)
    spread = max((bq3 - bq1) / bm if bm else 0, (nq3 - nq1) / nm if nm else 0)
    all_better = all(is_better(n, b, better) for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(is_better(n, b, better) for b, n in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(nm - bm) > bq3 - bq1):
        return "improved"
    worse = (nm - bm) if better == "lower" else (bm - nm)
    if bm and worse / abs(bm) > bound:
        return "regressed"
    return "within bound"


def fmt(vals):
    med, q1, q3 = summary(vals)
    return "%12.4f [%.4f, %.4f]" % (med, q1, q3)


def change(base, new):
    bm, nm = summary(base)[0], summary(new)[0]
    return "%+7.1f%%" % (100 * (nm - bm) / bm) if bm else "      -"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    row = "%-16s %-40s %-34s %-34s %8s  %s"
    print(row % ("workload", "metric", "base median [q1, q3]",
                 "new median [q1, q3]", "change", "verdict"))
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        for m in bench["end_to_end"]:
            bv, nv = values(b["untraced"], m["name"]), values(
                n["untraced"], m["name"])
            if not bv or not nv:
                continue
            v = verdict(bv, nv, m["better"], m["bound"])
            regressed = regressed or v == "regressed"
            print(row % (workload, m["name"], fmt(bv), fmt(nv),
                         change(bv, nv), v))
        for m in bench["per_layer"]:
            bv = values(b["traced"] or b["untraced"], m["name"])
            nv = values(n["traced"] or n["untraced"], m["name"])
            if bv and nv:
                print(row % (workload, m["name"], fmt(bv), fmt(nv),
                             change(bv, nv), "-"))
        for side, runs in (("base", b), ("new", n)):
            plain = values(runs["untraced"], "throughput_kops")
            traced = values(runs["traced"], "throughput_kops")
            if plain and traced:
                print("%-16s trace overhead (%s): %.1f%% of throughput_kops"
                      % (workload, side, 100 * (1 - statistics.median(traced)
                                                / statistics.median(plain))))
    for workload in sorted(set(base) ^ set(new)):
        print("%-16s only in one set" % workload)
    for run in bad_runs:
        print("incorrect run: " + run)
    return 1 if regressed or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
