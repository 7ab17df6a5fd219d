#!/usr/bin/env bash
# The repository benchmark: builds trt_bench in Release into
# build/benchmark/ and runs workloads, each in its own process.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke]
#
# Without --workload it runs all four workloads in turn. Every metric is
# printed as "workload metric value unit"; the last stdout line of a run
# is its result object. Results land in build/benchmark/results/ (see
# README.md). Build output goes to stderr.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

# Knobs from the caller's environment must not change what is measured.
while read -r var; do
    unset "$var"
done < <(env | sed -n 's/^\(TRT_[A-Za-z0-9_]*\)=.*/\1/p')

build=build/benchmark
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S benchmark -B "$build" >&2
fi
cmake --build "$build" -j"$(nproc)" --target trt_bench >&2

workload=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --workload)
        workload=${2:?--workload needs a name}
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

if [ -n "$workload" ]; then
    # Not exec: resource usage of reaped children survives exec, and
    # peak_rss_mb would then count the compiler and linker.
    "$build/trt_bench" --workload "$workload" "${args[@]}"
    exit
fi
for w in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    "$build/trt_bench" --workload "$w" "${args[@]}"
done
