#!/usr/bin/env python3
"""Compare two result sets of the benchmark, or summarise one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RUNS.jsonl

A result set is a file of JSON lines as `run.py --record FILE` appends them:
one run each, with its workload, seed, trace mode and metrics. For every
metric x workload the tool prints each side's median and quartiles (from
Python's statistics.quantiles(values, n=4)) and the spread, the quartile
distance as a share of the median.

With two sets it pairs the runs of each metric x workload in recorded order
and gives a verdict by the choosing-metrics rule:
  better      the change wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's quartile distance;
  worse       the same rule with parent and change swapped, or (end-to-end
              metrics) the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  either side's spread exceeds the metric's bound, unless every
              change run beats every parent run (then: unchanged);
  unchanged   otherwise.
Per-layer metrics have no bound, so only the first two rules apply to them.
The exit code is 1 when any end-to-end pair is worse or unresolved.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    for path in ("BENCHMARK.json", os.path.join(HERE, "..", "BENCHMARK.json")):
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
    raise SystemExit("compare: BENCHMARK.json not found")


def load_runs(path):
    """(workload, metric) -> values in recorded order."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            for name, m in row["metrics"].items():
                runs[(row["workload"], name)].append(float(m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, higher_is_better, bound):
    def better(a, b):  # a better than b
        return a > b if higher_is_better else a < b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = abs(cmed - pmed)
    iqr = p3 - p1
    if pairs and wins >= 0.9 * len(pairs) and gap > iqr and better(cmed, pmed):
        return "better"
    if pairs and losses >= 0.9 * len(pairs) and gap > iqr and better(pmed, cmed):
        return "worse"
    if bound is not None:
        # Every change run beating every parent run settles a wide spread,
        # but claims no gain: only the rule above does.
        settled = all(better(c, p) for c in change for p in parent)
        if not settled and (spread(parent) > bound or spread(change) > bound):
            return "unresolved"
        worse_by = (pmed - cmed) if higher_is_better else (cmed - pmed)
        if pmed and worse_by / abs(pmed) > bound:
            return "worse"
    return "unchanged"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    sets = [load_runs(p) for p in argv[1:]]
    workloads = sorted({w for s in sets for (w, _) in s})
    bad = 0
    for w in workloads:
        print("== %s" % w)
        if len(sets) == 1:
            print("%-34s %5s %14s %14s %14s %8s %6s" %
                  ("metric", "n", "q1", "median", "q3", "spread", "bound"))
        else:
            print("%-34s %5s %14s %14s %8s %14s %14s %8s  %s" %
                  ("metric", "n", "parent", "parent_iqr", "spread", "change", "change_iqr",
                   "spread", "verdict"))
        for m, e2e in metrics:
            key = (w, m["name"])
            if any(key not in s for s in sets):
                continue
            bound = m.get("bound") if e2e else None
            if len(sets) == 1:
                v = sets[0][key]
                q1, med, q3 = quartiles(v)
                flag = "" if bound is None or spread(v) <= bound else "  > bound"
                print("%-34s %5d %14.6g %14.6g %14.6g %7.2f%% %6s%s" %
                      (m["name"], len(v), q1, med, q3, 100 * spread(v),
                       "" if bound is None else "%g" % bound, flag))
                bad += bool(flag)
                continue
            parent, change = sets[0][key], sets[1][key]
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            v = verdict(parent, change, m["better"] == "higher", bound)
            print("%-34s %5d %14.6g %14.6g %7.2f%% %14.6g %14.6g %7.2f%%  %s" %
                  (m["name"], min(len(parent), len(change)), pmed, pq3 - pq1,
                   100 * spread(parent), cmed, cq3 - cq1, 100 * spread(change), v))
            bad += e2e and v in ("worse", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
