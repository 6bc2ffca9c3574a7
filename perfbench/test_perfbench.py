#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # compare.py rules + smoke run
    python3 perfbench/test_perfbench.py CompareRules   # compare.py rules only

Run from the root of a checkout. The smoke test builds the benchmark (see
run.py) and runs every workload, untraced and traced, on a small corpus for
a couple of seconds each. It checks that each run passes its correctness
checks and prints every metric of BENCHMARK.json, with its unit, plus the
workload's own metrics.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402


class CompareRules(unittest.TestCase):
    def test_clear_win_is_better(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [v * 1.2 for v in parent]
        self.assertEqual(compare.verdict(parent, change, True, 0.1), "better")
        self.assertEqual(compare.verdict(change, parent, True, 0.1), "worse")

    def test_same_distribution_is_unchanged(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [101, 99, 100, 100, 98, 102, 99, 100, 101, 100]
        self.assertEqual(compare.verdict(a, b, True, 0.1), "unchanged")
        self.assertEqual(compare.verdict(a, b, False, 0.1), "unchanged")

    def test_spread_beyond_bound_is_unresolved(self):
        a = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
        b = [140, 60, 110, 90, 100, 150, 50, 120, 80, 100]
        self.assertEqual(compare.verdict(a, b, True, 0.1), "unresolved")

    def test_every_run_better_settles_spread_but_claims_no_gain(self):
        parent = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
        change = [91] * 10  # wins every pair, but the gap (46) is below the IQR (65)
        self.assertEqual(compare.verdict(parent, change, True, 0.1), "unchanged")

    def test_median_worse_by_more_than_bound_is_worse(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        # Mostly level, but the median slips by 15%: a regression beyond 10%.
        change = [85, 86, 84, 85, 102, 98, 85, 86, 84, 85]
        self.assertEqual(compare.verdict(parent, change, True, 0.1), "worse")

    def test_summary_and_pairwise_run_on_recorded_files(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.jsonl")
            with open(path, "w") as f:
                for seed, value in enumerate([10.0, 10.2, 9.9, 10.1]):
                    row = {"workload": "spool_drain", "seed": seed, "trace": 0,
                           "metrics": {"setup_s": {"value": value, "unit": "s"}}}
                    f.write(json.dumps(row) + "\n")
            self.assertEqual(compare.main(["compare", path]), 0)
            self.assertEqual(compare.main(["compare", path, path]), 0)


class Smoke(unittest.TestCase):
    def test_every_workload_emits_every_metric_and_passes_its_checks(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                              stderr=subprocess.PIPE, text=True, timeout=1800)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])


if __name__ == "__main__":
    unittest.main()
