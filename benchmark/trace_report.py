#!/usr/bin/env python3
"""Per-layer self time and coverage of a traced benchmark run.

    benchmark/trace_report.py build/benchmark/results/<workload>.trace.json
        [--runs build/benchmark/results/runs.jsonl]

The trace is the Chrome trace JSON that `benchmark/run.sh --trace`
writes. A span's self time is its duration minus the time its child
spans cover. The layer of a span is its name up to the first dot
(gpu.simulate -> gpu); "workload" and "phase.*" spans only group the
others. Coverage is the share of the workload span that layer spans
cover; it must be at least 95 %, or the exit status is 1.

With --runs it also prints the tracing overhead: the change in the
median wall_s of the workload's traced runs against its untraced runs,
over the seeds that have both.
"""

import argparse
import collections
import json
import statistics
import sys

STRUCTURAL = ("workload", "phase.")


def structural(name):
    return name == STRUCTURAL[0] or name.startswith(STRUCTURAL[1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trace")
    p.add_argument("--runs", help="runs.jsonl for the tracing overhead")
    args = p.parse_args()

    with open(args.trace) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["id"]: e for e in events}
    child_us = collections.defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            child_us[e["args"]["parent"]] += e["dur"]
    roots = [e for e in events if e["name"] == "workload"]
    if len(roots) != 1:
        sys.exit("trace has %d workload spans, expected 1" % len(roots))
    root = roots[0]
    workload = root["args"]["job"]
    total = root["dur"]

    by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
    by_layer = collections.defaultdict(float)
    gap = 0.0
    for i, e in spans.items():
        self_us = max(e["dur"] - child_us[i], 0.0)
        row = by_name[e["name"]]
        row[0] += 1
        row[1] += e["dur"]
        row[2] += self_us
        if structural(e["name"]):
            gap += self_us
        else:
            by_layer[e["name"].split(".")[0]] += self_us

    print("%s: %.3f s in %d spans" % (workload, total / 1e6, len(events)))
    print("\n%-34s %6s %12s %12s %7s" %
          ("span", "count", "total_s", "self_s", "share"))
    for name, (n, dur, self_us) in sorted(by_name.items(),
                                          key=lambda kv: -kv[1][2]):
        print("%-34s %6d %12.4f %12.4f %6.2f%%" %
              (name, n, dur / 1e6, self_us / 1e6, 100 * self_us / total))
    print("\n%-34s %12s %7s" % ("layer", "self_s", "share"))
    for layer, self_us in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("%-34s %12.4f %6.2f%%" %
              (layer, self_us / 1e6, 100 * self_us / total))

    coverage = 1 - gap / total if total else 0.0
    print("\ncoverage %.2f%% of the workload span (need >= 95%%)" %
          (100 * coverage))

    if args.runs:
        # Seed 1 and the other seeds run different scenes: compare only
        # seeds that have both traced and untraced runs.
        walls = collections.defaultdict(lambda: {0: [], 1: []})
        with open(args.runs) as f:
            for line in f:
                r = json.loads(line)
                if r["workload"] == workload and not r.get("smoke"):
                    walls[r["seed"]][int(bool(r["trace"]))].append(
                        r["metrics"]["wall_s"]["value"])
        seeds = sorted(s for s, w in walls.items() if w[0] and w[1])
        untraced = [v for s in seeds for v in walls[s][0]]
        traced = [v for s in seeds for v in walls[s][1]]
        if seeds:
            u, t = statistics.median(untraced), statistics.median(traced)
            print("trace overhead %+.2f%% (wall_s median %.4f s traced, "
                  "%.4f s untraced; %d and %d runs; seeds %s)" %
                  (100 * (t / u - 1), t, u, len(traced), len(untraced),
                   ",".join(map(str, seeds))))
        else:
            print("trace overhead: need traced and untraced runs of %s "
                  "at one seed" % workload)
    return 0 if coverage >= 0.95 else 1


if __name__ == "__main__":
    sys.exit(main())
