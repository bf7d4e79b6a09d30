#!/usr/bin/env bash
# The repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--seed S] [--workload W] [--out F] [--trace 0|1] [--smoke]
#                    [--seconds T]
#
# Builds eim_benchmark in Release into benchmark/build/, then runs each
# workload (all five, or just W) in its own process. Every metric is printed
# by name with its unit; a single workload's last output line is its JSON
# result. --out F collects every workload's result into F. --trace 1 reports
# the per-layer metrics instead of the end-to-end ones and writes each
# workload's spans as Chrome trace JSON to benchmark/build/spans/; --traced
# is an alias for it. --smoke is the harness self-test: two solves per
# workload and one timed set-up. Exits non-zero if the build fails or any
# correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

seed=1
workload=""
out=""
trace=0
seconds=15
smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) sed -n '4,5p' "$0" >&2; exit 2 ;;
  esac
done
case "$out" in '' | /*) ;; *) out="$PWD/$out" ;; esac
cd "$here/.."

build="$here/build"
mkdir -p "$build"
if ! { { [ -f "$build/Makefile" ] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" --target eim_benchmark -j "$(nproc)"; } >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi

run_one() {
  "$build/eim_benchmark" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" ${smoke[@]+"${smoke[@]}"}
}

if [ -n "$workload" ] && [ -z "$out" ]; then
  run_one "$workload"
  exit $?
fi

status=0
results=""
for w in ${workload:-ic_exact ic_select lt_skip_large ic_spill_ckpt ic_cluster}; do
  echo "== $w (seed $seed, trace $trace)"
  log="$build/$w.out"
  run_one "$w" >"$log" || status=1
  cat "$log"
  last="$(tail -n 1 "$log")"
  case "$last" in
    '{"correct":'*) results="$results${results:+,}\"$w\":$last" ;;
    *) status=1 ;;
  esac
done
if [ -n "$out" ]; then
  printf '{"seed":%s,"trace":%s,"seconds":%s,"workloads":{%s}}\n' \
    "$seed" "$trace" "$seconds" "$results" >"$out"
  echo "results written to $out"
fi
exit $status
