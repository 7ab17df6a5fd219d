#!/usr/bin/env python3
"""Append the latest run of every workload to benchmark/history.jsonl.

    benchmark/record_history.py [build/benchmark/results/runs.jsonl]

Takes the last untraced, non-smoke run of each workload in the runs file
and appends one line holding the date, the commit and whether the tree
was dirty, the host (nproc, CPU model), and per workload its seed,
seconds, stats_digest, correctness and every end-to-end metric.
"""

import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git(*args):
    try:
        return subprocess.run(["git", "-C", HERE, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    runs_path = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.join(HERE, "..", "build", "benchmark", "results", "runs.jsonl")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        e2e = [m["name"] for m in json.load(f)["end_to_end"]]
    latest = {}
    with open(runs_path) as f:
        for line in f:
            r = json.loads(line)
            if not r["trace"] and not r.get("smoke"):
                latest[r["workload"]] = r
    if not latest:
        sys.exit("no untraced runs in " + runs_path)
    status = git("status", "--porcelain")
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workloads": {
            w: {
                "seed": r["seed"],
                "seconds": r["seconds"],
                "correct": r["correct"],
                "stats_digest": r["stats_digest"],
                "metrics": {m: r["metrics"][m]["value"] for m in e2e},
            } for w, r in sorted(latest.items())
        },
    }
    with open(os.path.join(HERE, "history.jsonl"), "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
