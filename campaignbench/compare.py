#!/usr/bin/env python3
"""Compare two sets of campaign-benchmark results (a base and a candidate).

    python3 campaignbench/compare.py BASE CAND

BASE and CAND are files or directories of files, each file the standard
output of one run of campaignbench/run.py.  Runs are grouped by the
workload named in their header line.  For every end-to-end metric of
BENCHMARK.json the script prints each side's median and quartiles and a
verdict:

  regressed   the candidate's median is worse than the base's by more
              than the metric's bound
  slower      within the bound, but a resolved loss: the medians differ
              by more than the base's own spread (q3 - q1 over the
              median) and nine in ten candidate runs are worse than the
              base median
  faster      the same rule the other way round
  unresolved  none of the above, and the base's spread is wider than
              the bound, so "unchanged" cannot be claimed
  ok          none of the above

A run whose JSON says correct=false is reported as a failure.  Exit
status 1 when anything regressed, got slower or failed, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds(path):
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def parse_run(text):
    """(workload, result dict) from one run's standard output, or None."""
    workload = None
    result = None
    for line in text.splitlines():
        if line.startswith("campaignbench workload="):
            workload = line.split()[1].split("=", 1)[1]
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                result = None
    if workload is None or result is None:
        return None
    return workload, result


def load_runs(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))]
    runs = {}
    for f in files:
        with open(f) as fh:
            parsed = parse_run(fh.read())
        if parsed:
            runs.setdefault(parsed[0], []).append(parsed[1])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def compare(base, cand, bounds):
    """Rows of (workload, metric, base quartiles, cand quartiles, change, verdict)."""
    rows = []
    for workload in sorted(set(base) | set(cand)):
        b_runs, c_runs = base.get(workload, []), cand.get(workload, [])
        if not b_runs or not c_runs:
            rows.append((workload, "-", None, None, None, "missing"))
            continue
        for side, runs in (("base", b_runs), ("cand", c_runs)):
            bad = sum(1 for r in runs if not r.get("correct"))
            if bad:
                rows.append((workload, "correct", None, None, None,
                             "failed (%s: %d of %d runs)" % (side, bad, len(runs))))
        for metric, (better, bound) in bounds.items():
            bv = [r["metrics"][metric]["value"] for r in b_runs if metric in r["metrics"]]
            cv = [r["metrics"][metric]["value"] for r in c_runs if metric in r["metrics"]]
            if not bv or not cv:
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            change = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            sign = 1 if better == "lower" else -1
            worse = sign * change
            worse_runs = sum(1 for v in cv if sign * (v - bq[1]) > 0) / len(cv)
            resolved = abs(change) > spread(bv)
            if worse > bound:
                verdict = "regressed"
            elif resolved and worse > 0 and worse_runs >= 0.9:
                verdict = "slower"
            elif resolved and worse < 0 and worse_runs <= 0.1:
                verdict = "faster"
            elif spread(bv) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, metric, bq, cq, change, verdict))
    return rows


def failed(rows):
    return any(r[5] in ("regressed", "slower") or r[5].startswith(("failed", "missing"))
               for r in rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("cand")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)
    rows = compare(load_runs(args.base), load_runs(args.cand), load_bounds(args.benchmark))
    fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2]) if q else "-"
    for workload, metric, bq, cq, change, verdict in rows:
        delta = "%+.1f%%" % (100 * change) if change is not None else "-"
        print("%-13s %-18s base %-28s cand %-28s %7s  %s"
              % (workload, metric, fmt(bq), fmt(cq), delta, verdict))
    return 1 if failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
