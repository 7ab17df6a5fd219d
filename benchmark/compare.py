#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one set.

    benchmark/compare.py A.jsonl [B.jsonl]

A and B are result sets: JSON-lines files of run records, such as
build/benchmark/results/runs.jsonl (trt_bench appends one line per run;
--smoke runs are skipped). Metrics, directions and bounds come from the
repository's BENCHMARK.json.
Copy that file aside after measuring the parent commit, then measure the
change and compare. Runs pair up in file order per workload, so
alternate parent and change runs when making them, with the same seeds
on both sides (seed 1 runs other scenes than the rest).

For each workload and metric it prints both medians with their
quartiles (statistics.quantiles, n=4), the change in the median, the
fraction of pairs the change wins (ties count for neither), and one
verdict:

  improved      B wins >= 90 % of pairs and the medians differ by more
                than A's interquartile range
  regressed     B's median is worse than A's by more than the bound
                (per-layer metrics have none: A wins >= 90 % of pairs
                and the medians differ by more than A's range)
  within bound  otherwise, when the spread allows a verdict
  unresolved    the run-to-run spread (IQR / median) is wider than the
                bound, unless every B run beats every A run

End-to-end metrics come from untraced runs, per-layer metrics from
traced runs when the set has any. It also reports any seed whose
stats_digest differs between the sets (simulated results changed).
With one set it prints each metric's spread against its bound and marks
the ones above a third of it. Exit status 1 when an end-to-end metric
regressed or a one-set spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "BENCHMARK.json")


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                if not r.get("smoke"):
                    runs.append(r)
    return runs


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"], True)
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None, False)
    return metrics


def series(runs, workload, metric, end_to_end):
    mine = [r for r in runs if r["workload"] == workload]
    traced = [r for r in mine if r["trace"]]
    use = traced if (not end_to_end and traced) else \
        [r for r in mine if not r["trace"]]
    return [r["metrics"][metric]["value"] for r in use
            if metric in r["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else
                                              float("inf"))


def verdict(a, b, better, bound):
    sign = 1 if better == "higher" else -1
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    gain = (medb - meda) * sign
    pairs = list(zip(a, b))
    wins = sum((y - x) * sign > 0 for x, y in pairs) / len(pairs)
    losses = sum((y - x) * sign < 0 for x, y in pairs) / len(pairs)
    rng = q3a - q1a
    if wins >= 0.9 and gain > rng:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 and -gain > rng:
            return "regressed", wins
        return ("within bound" if gain == 0 and rng == 0
                else "unresolved"), wins
    every_better = min(y * sign for y in b) > max(x * sign for x in a)
    if max(spread(a), spread(b)) > bound and not every_better:
        return "unresolved", wins
    if -gain > bound * abs(meda):
        return "regressed", wins
    return "within bound", wins


def fmt(v):
    q1, med, q3 = quartiles(v)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def one_set(runs, spec):
    bad = False
    print("%-16s %-34s %-38s %8s %6s" %
          ("workload", "metric", "median [q1, q3]", "spread", "bound"))
    for w in sorted({r["workload"] for r in runs}):
        for name, (better, bound, e2e) in spec.items():
            v = series(runs, w, name, e2e)
            if not v:
                continue
            s = spread(v)
            mark = ""
            if bound is not None and s > bound / 3:
                mark = "  > bound/3"
                if name != "setup_s" and s > bound:
                    bad = True
                    mark = "  > bound"
            print("%-16s %-34s %-38s %7.2f%% %6s%s" %
                  (w, name, fmt(v), 100 * s,
                   "-" if bound is None else "%.0f%%" % (100 * bound),
                   mark))
    return bad


def two_sets(a_runs, b_runs, spec):
    regressed = False
    print("%-16s %-34s %-36s %-36s %8s %5s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "change", "wins", "verdict"))
    for w in sorted({r["workload"] for r in a_runs} &
                    {r["workload"] for r in b_runs}):
        for name, (better, bound, e2e) in spec.items():
            a = series(a_runs, w, name, e2e)
            b = series(b_runs, w, name, e2e)
            if not a or not b:
                continue
            v, wins = verdict(a, b, better, bound)
            ma, mb = quartiles(a)[1], quartiles(b)[1]
            change = "%+.2f%%" % (100 * (mb - ma) / abs(ma)) if ma else "-"
            print("%-16s %-34s %-36s %-36s %8s %4.0f%%  %s" %
                  (w, name, fmt(a), fmt(b), change, 100 * wins, v))
            regressed |= e2e and v == "regressed"
        digests = {}
        for tag, runs in (("A", a_runs), ("B", b_runs)):
            for r in runs:
                if r["workload"] == w:
                    digests.setdefault(r["seed"], {}).setdefault(
                        tag, set()).add(r["stats_digest"])
        for seed, d in sorted(digests.items()):
            if "A" in d and "B" in d and d["A"] != d["B"]:
                print("%-16s stats_digest differs at seed %s: A %s, B %s" %
                      (w, seed, sorted(d["A"]), sorted(d["B"])))
    return regressed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    args = p.parse_args()
    spec = load_spec()
    a = load_runs(args.a)
    if args.b is None:
        return 1 if one_set(a, spec) else 0
    return 1 if two_sets(a, load_runs(args.b), spec) else 0


if __name__ == "__main__":
    sys.exit(main())
