#!/usr/bin/env bash
# spread.sh runs the benchmark once per seed on one workload and prints each
# metric's median and interquartile spread across the runs — the check a
# set of runs must pass (the spread of every end-to-end metric but setup_s
# below its bound). Run it from the repository root:
#
#   bash benchmark/spread.sh serve-mix 10 [first-seed] [seconds] [trace]
#
# Each run's full report is kept in .bench_build/spread/.
set -euo pipefail

workload="$1"
runs="${2:-10}"
first="${3:-1}"
seconds="${4:-55}"
trace="${5:-0}"
dir=".bench_build/spread/$workload-trace$trace"
mkdir -p "$dir"
files=()
for ((i = 0; i < runs; i++)); do
  seed=$((first + i))
  out="$dir/seed$seed.txt"
  bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$out"
  tail -n 1 "$out"
  files+=("$out")
done
.bench_build/webmm-bench spread "${files[@]}"
