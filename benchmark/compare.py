#!/usr/bin/env python3
"""Compares two `run.py --out` reports, A (parent) and B (change).

    python3 benchmark/compare.py A.json B.json [--claim WORKLOAD:METRIC ...]

For every workload and end-to-end metric of BENCHMARK.json it prints one
verdict:

  regression  B's median is worse than A's by more than the metric's bound
  unresolved  not a regression, but A's or B's interquartile range is wider
              than the bound, and B's runs do not all beat A's runs
  better      every run of B beats every run of A
  ok          within the bound, with a spread narrower than the bound

A named claim (--claim) holds when B wins at least 9 of every 10 paired runs
(run i of A against run i of B; ties count for neither) and the medians
differ by more than A's interquartile range.

Refuses (exit 2) to compare reports whose input digest, seed or build type
differ. Exits 1 when any metric regressed or any claim failed, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def worse_by(a, b, better):
    """Relative amount by which b is worse than a (negative: b is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def beats(x, y, better):
    return x > y if better == "higher" else x < y


def verdict(a_runs, b_runs, bound, better):
    a_med = statistics.median(a_runs)
    b_med = statistics.median(b_runs)
    change = worse_by(a_med, b_med, better)
    if all(beats(b, a, better) for b in b_runs for a in a_runs):
        return "better", change
    if change > bound:
        return "regression", change
    spread = max(iqr(a_runs) / abs(a_med) if a_med else 0.0,
                 iqr(b_runs) / abs(b_med) if b_med else 0.0)
    if spread > bound:
        return "unresolved", change
    return "ok", change


def claim_holds(a_runs, b_runs, better):
    pairs = list(zip(a_runs, b_runs))
    wins = sum(1 for a, b in pairs if beats(b, a, better))
    med_gap = abs(statistics.median(b_runs) - statistics.median(a_runs))
    return wins * 10 >= 9 * len(pairs) and med_gap > iqr(a_runs), wins, len(pairs)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--claim", action="append", default=[],
                   help="WORKLOAD:METRIC that B claims to improve")
    opts = p.parse_args()
    with open(opts.a) as f:
        a = json.load(f)
    with open(opts.b) as f:
        b = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    by_name = {m["name"]: m for m in metrics}

    if a["meta"]["seed"] != b["meta"]["seed"]:
        print("refusing: seeds differ", file=sys.stderr)
        return 2
    common = [w for w in a["workloads"] if w in b["workloads"]]
    for w in common:
        for key in ("input_digest", "build_type"):
            if a["workloads"][w][key] != b["workloads"][w][key]:
                print(f"refusing: {w} {key} differs "
                      f"({a['workloads'][w][key]} vs {b['workloads'][w][key]})",
                      file=sys.stderr)
                return 2

    rc = 0
    print(f"{'workload':18s} {'metric':20s} {'A median':>12s} {'B median':>12s}"
          f" {'worse by':>9s} {'bound':>6s}  verdict")
    for w in common:
        a_runs = a["workloads"][w]["runs"]
        b_runs = b["workloads"][w]["runs"]
        for m in metrics:
            av = [r[m["name"]] for r in a_runs]
            bv = [r[m["name"]] for r in b_runs]
            v, change = verdict(av, bv, m["bound"], m["better"])
            rc |= v == "regression"
            print(f"{w:18s} {m['name']:20s} {statistics.median(av):12.6g} "
                  f"{statistics.median(bv):12.6g} {change:+9.2%} "
                  f"{m['bound']:6.1%}  {v}")
    for claim in opts.claim:
        w, _, name = claim.partition(":")
        if w not in common or name not in by_name:
            print(f"claim {claim}: unknown workload or metric", file=sys.stderr)
            return 2
        av = [r[name] for r in a["workloads"][w]["runs"]]
        bv = [r[name] for r in b["workloads"][w]["runs"]]
        held, wins, pairs = claim_holds(av, bv, by_name[name]["better"])
        rc |= not held
        print(f"claim {claim}: {'holds' if held else 'NOT MET'} "
              f"({wins}/{pairs} paired wins)")
    return 1 if rc else 0


if __name__ == "__main__":
    sys.exit(main())
