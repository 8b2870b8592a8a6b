"""Tests of campaignbench/compare.py.

    python3 -m unittest discover -s campaignbench/test
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402

BOUNDS = compare.load_bounds(os.path.join(compare.ROOT, "BENCHMARK.json"))


def run_output(workload, campaign_s, correct=True, passed=1.0):
    result = {
        "correct": correct, "attempted": 390, "failed": round(390 * (1 - passed)),
        "metrics": {
            "campaign_s": {"value": campaign_s, "unit": "s"},
            "setup_s": {"value": 1.2, "unit": "s"},
            "peak_rss_mb": {"value": 40.0, "unit": "MB"},
            "cells_passed_frac": {"value": passed, "unit": "fraction"},
        },
    }
    return "campaignbench workload=%s seed=1 trace=0\n%s\n" % (workload, json.dumps(result))


# Ten runs with a 2% spread around 1.0 s.
BASE = [1.0 + 0.005 * (i % 5 - 2) for i in range(10)]


def runs(values, **kw):
    return {"fabric-fine": [compare.parse_run(run_output("fabric-fine", v, **kw))[1] for v in values]}


def verdicts(rows):
    return {metric: verdict for _, metric, _, _, _, verdict in rows}


class CompareTest(unittest.TestCase):
    def test_identical_sets_pass(self):
        rows = compare.compare(runs(BASE), runs(BASE), BOUNDS)
        self.assertFalse(compare.failed(rows))
        self.assertEqual(verdicts(rows)["campaign_s"], "ok")

    def test_twenty_percent_slowdown_is_flagged(self):
        rows = compare.compare(runs(BASE), runs([v * 1.2 for v in BASE]), BOUNDS)
        self.assertIn(verdicts(rows)["campaign_s"], ("regressed", "slower"))
        self.assertTrue(compare.failed(rows))

    def test_slowdown_beyond_the_bound_regresses(self):
        bound = BOUNDS["campaign_s"][1]
        rows = compare.compare(runs(BASE), runs([v * (1.05 + bound) for v in BASE]), BOUNDS)
        self.assertEqual(verdicts(rows)["campaign_s"], "regressed")

    def test_twenty_percent_speedup_is_not_a_regression(self):
        rows = compare.compare(runs(BASE), runs([v * 0.8 for v in BASE]), BOUNDS)
        self.assertEqual(verdicts(rows)["campaign_s"], "faster")
        self.assertFalse(compare.failed(rows))

    def test_slowdown_within_the_noise_passes(self):
        # every candidate run inside the base's own quartiles
        rows = compare.compare(runs(BASE), runs([1.0 + 0.003 * (i % 3 - 1) for i in range(10)]), BOUNDS)
        self.assertEqual(verdicts(rows)["campaign_s"], "ok")

    def test_incorrect_runs_fail(self):
        rows = compare.compare(runs(BASE), runs(BASE, correct=False, passed=389 / 390), BOUNDS)
        self.assertTrue(compare.failed(rows))
        self.assertIn("failed", " ".join(r[5] for r in rows))

    def test_higher_is_better_metric_flags_a_drop(self):
        rows = compare.compare(runs(BASE), runs(BASE, passed=0.8), BOUNDS)
        self.assertEqual(verdicts(rows)["cells_passed_frac"], "regressed")

    def test_wide_base_spread_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.75, 1.1]
        rows = compare.compare(runs(noisy), runs(noisy), BOUNDS)
        self.assertEqual(verdicts(rows)["campaign_s"], "unresolved")

    def test_reads_result_files(self):
        with tempfile.TemporaryDirectory() as d:
            for i, v in enumerate(BASE):
                with open(os.path.join(d, "run-%d.txt" % i), "w") as fh:
                    fh.write(run_output("minheap-cold", v))
            loaded = compare.load_runs(d)
            self.assertEqual(len(loaded["minheap-cold"]), 10)
            self.assertEqual(compare.main([d, d]), 0)


if __name__ == "__main__":
    unittest.main()
