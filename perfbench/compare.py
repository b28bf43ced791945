"""Compare two result sets written by ``run.py --out``.

One row per workload and end-to-end metric: each side's median and
quartiles, the pairwise win count (runs paired by seed, ties count for
neither side), and a verdict under the bounds in BENCHMARK.json:

- improved: B wins at least 9 of 10 pairs and the medians differ by more
  than A's own quartile spread;
- worse: B's median is worse than A's by more than the bound;
- unresolved: either side's quartile spread is wider than the bound and not
  every B run beats every A run;
- no worse: otherwise.

Exits 1 when any row is worse.
"""

import json
import os
import statistics

from workloads import ROOT


def load(path):
    """{workload: {seed: {metric: value}}} for the untraced runs in path."""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            info = rec["info"]
            if info["trace"]:
                continue
            out.setdefault(info["workload"], {})[info["seed"]] = {
                k: v["value"] for k, v in rec["result"]["metrics"].items()}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values):
    q1, med, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def verdict(a, b, pairs, higher, bound):
    sign = 1 if higher else -1
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    wins = sum(1 for x, y in pairs if (y - x) * sign > 0)
    if pairs and wins >= 0.9 * len(pairs) and (bm - am) * sign > a3 - a1:
        return wins, "improved"
    if (am - bm) * sign > bound * am:
        return wins, "worse"
    if (a3 - a1) > bound * am or (b3 - b1) > bound * bm:
        if min(y * sign for y in b) > max(x * sign for x in a):
            return wins, "no worse"
        return wins, "unresolved"
    return wins, "no worse"


def main(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    runs_a, runs_b = load(path_a), load(path_b)
    print("%-13s %-16s %-30s %-30s %-6s %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B wins", "verdict"))
    any_worse = False
    for wl in [w for w in runs_a if w in runs_b]:
        a_runs, b_runs = runs_a[wl], runs_b[wl]
        seeds = sorted(set(a_runs) & set(b_runs))
        for m in metrics:
            name = m["name"]
            a = [r[name] for r in a_runs.values()]
            b = [r[name] for r in b_runs.values()]
            pairs = [(a_runs[s][name], b_runs[s][name]) for s in seeds]
            wins, v = verdict(a, b, pairs, m["better"] == "higher",
                              m["bound"])
            any_worse |= v == "worse"
            print("%-13s %-16s %-30s %-30s %2d/%-3d %s" % (
                wl, name, summary(a), summary(b), wins, len(pairs), v))
    return 1 if any_worse else 0
