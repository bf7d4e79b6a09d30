#!/usr/bin/env bash
# Pre-merge gate: build everything under AddressSanitizer + UBSan and run
# the default test suite plus the stress-, checkpoint-, cluster-, spill-,
# drawmode- and mutation-labeled tests (see README.md), run the concurrent suites
# under ThreadSanitizer in a separate tree, exercise CLI-level
# checkpoint/resume including corrupt-snapshot rejection, a --draw-mode
# skip round-trip with mode-mismatch rejection, a node-kill cluster
# failover smoke (with quorum loss and cluster OOM under --degrade writing
# one stderr degraded record), a multi-GPU smoke (--devices 3 == --nodes 3
# == one device, plus exit-2 rejection of bad or conflicting flags), a
# quarter-budget spill smoke (with and without an eighth-size host tier that
# forces the disk tier, and on two devices) that must reproduce the
# unconstrained seeds bit-identically, and a two-device OOM-degrade smoke, then
# check that a --metrics-json report without --profile-out carries the wall
# timers, that modeled time repeats bit-for-bit under `taskset -c 0` and that
# no sampling wave generates more than one rejected slot per block, then
# run one small traced benchmark, validate the JSON artifacts it emits, and
# diff its timings against the committed baseline. Finishes with a
# Release-build perf smoke: bench_micro plus the fig7, multi-node, and
# spill-tax curves diffed bit-identically against bench/baselines (wall rows
# are warn-only; see docs/PERFORMANCE.md), with the sampling profiler
# attached to the fig7 run — its folded stacks must symbolize (prof_report
# gate) and the profiled modeled rows must stay bit-identical — a profiled
# selection-heavy CLI run whose samples must bucket at least 97%, the
# bench_quality draw-mode spread-equivalence gate (always fatal), and the
# repository benchmark's --smoke self-test with its seed digests (fatal).
#
# Usage: scripts/run_checks.sh [build-dir]
#   build-dir defaults to build-asan (kept separate from the regular build).
#
# Every benchmark diff is fatal: modeled time repeats bit-for-bit (commits
# are decided in slot order), so a moved row means the cost model or the
# pipeline changed. Refresh the baseline with the command printed on
# mismatch when that change is intended.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# bench_gate <bench_diff> <baseline> <fresh> [bench_diff flags...]: diff a
# fresh envelope against its committed baseline; any modeled drift is fatal.
bench_gate() {
  local tool="$1" baseline="$2" fresh="$3"
  shift 3
  if ! "${tool}" "$@" "${baseline}" "${fresh}"; then
    echo "bench_diff: modeled time moved vs ${baseline}." >&2
    echo "If intentional, refresh the baseline:" >&2
    echo "  cp ${fresh} ${baseline}" >&2
    exit 1
  fi
}

echo "== configure (${build_dir}, ASan+UBSan) =="
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEIM_SANITIZE=ON

echo "== build =="
cmake --build "${build_dir}" -j "${jobs}"

# Make UBSan failures fatal and loud; halt_on_error keeps ctest exit codes
# meaningful instead of letting a poisoned process limp to "Passed".
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

echo "== default test suite =="
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

echo "== stress-labeled tests =="
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -C stress -L stress

echo "== checkpoint-labeled tests (kill-at-every-ordinal resume sweep) =="
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L checkpoint

echo "== cluster-labeled tests (multi-node failover + elastic resume) =="
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L cluster

echo "== spill-labeled tests (tiered store, disk-fault sweeps, CRC quarantine) =="
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L spill

echo "== drawmode-labeled tests (skip/alias statistical pinning, mode identity) =="
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L drawmode

echo "== mutation-labeled tests (seeded checkpoint, SNAP text and JSON decoder sweeps) =="
# Under ASan a decoder that over-reads, over-allocates or throws the wrong
# type fails here: the checkpoint snapshot, SNAP edge-list text and
# parse_json (JsonMutation). The spill frame's sweep (RrrFrameMutation) runs
# with the encoding suite in the default group above.
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L mutation

echo "== ThreadSanitizer: concurrent suites (separate tree, fatal) =="
# Every suite that runs kernels on the host thread pool: the sampler and
# gIM block bodies (the shared traversal kernel), commits, spill, sharded
# drivers, and the stress suite. PRE_TEST discovery keeps gtest discovery
# from running each binary at link time; halt_on_error turns the first
# report into a nonzero exit, and set -e makes that fatal.
tsan_dir="${repo_root}/build-tsan"
tsan_tests=(test_support test_gpusim test_eim test_multi_node test_stress
            test_draw_mode test_baselines)
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DCMAKE_GTEST_DISCOVER_TESTS_DISCOVERY_MODE=PRE_TEST
cmake --build "${tsan_dir}" -j "${jobs}" --target "${tsan_tests[@]}"
for t in "${tsan_tests[@]}"; do
  echo "-- ${t} --"
  (cd "${tsan_dir}/tests" &&
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
      "./${t}" --gtest_brief=1)
done
# The pool's helper handoff (job pointers on the queue, the last-touch
# decrement) is exercised once per parallel_for; repeat its own suite so a
# rare interleaving gets many chances to show.
echo "-- test_support ThreadPool.* x200 --"
(cd "${tsan_dir}/tests" &&
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
    ./test_support --gtest_filter='ThreadPool.*' --gtest_repeat=200 --gtest_brief=1)

echo "== CLI checkpoint/resume round-trip + corrupt-snapshot rejection =="
ckpt_tmp="$(mktemp -d)"
cli="${build_dir}/tools/eim_cli"
cli_args=(--dataset WV --k 10 --eps 0.3 --json)
"${cli}" "${cli_args[@]}" --checkpoint "${ckpt_tmp}/ck" > "${ckpt_tmp}/full.json"
"${cli}" "${cli_args[@]}" --resume "${ckpt_tmp}/ck" > "${ckpt_tmp}/resumed.json"
# Seeds and every algorithmic field must be bit-identical; only the modeled
# clock fields may differ (the resumed run charges a restore transfer).
for f in full resumed; do
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); [d.pop(k) for k in ("device_seconds","peak_device_bytes")]; print(json.dumps(d,sort_keys=True))' \
    "${ckpt_tmp}/${f}.json" > "${ckpt_tmp}/${f}.norm.json"
done
diff "${ckpt_tmp}/full.norm.json" "${ckpt_tmp}/resumed.norm.json"

# A bit-flipped snapshot must be refused with the I/O exit code (3), and a
# truncated one likewise — never a crash or a silently wrong answer.
python3 - "${ckpt_tmp}/ck/snapshot.bin" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0xFF
open(path, "wb").write(bytes(data))
EOF
status=0
"${cli}" "${cli_args[@]}" --resume "${ckpt_tmp}/ck" > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 3 ]]; then
  echo "ERROR: bit-flipped snapshot: expected exit 3, got ${status}" >&2; exit 1
fi
"${cli}" "${cli_args[@]}" --checkpoint "${ckpt_tmp}/ck2" > /dev/null
truncate -s 100 "${ckpt_tmp}/ck2/snapshot.bin"
status=0
"${cli}" "${cli_args[@]}" --resume "${ckpt_tmp}/ck2" > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 3 ]]; then
  echo "ERROR: truncated snapshot: expected exit 3, got ${status}" >&2; exit 1
fi
rm -rf "${ckpt_tmp}"

echo "== CLI --draw-mode skip smoke: round-trip + resume-mode-mismatch =="
dm_tmp="$(mktemp -d)"
dm_args=(--dataset WV --k 10 --eps 0.3 --json --draw-mode skip)
"${cli}" "${dm_args[@]}" --checkpoint "${dm_tmp}/ck" > "${dm_tmp}/full.json"
"${cli}" "${dm_args[@]}" --resume "${dm_tmp}/ck" > "${dm_tmp}/resumed.json"
# Same contract as the exact-mode round-trip above: bit-identical modulo the
# modeled clock fields.
for f in full resumed; do
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); [d.pop(k) for k in ("device_seconds","peak_device_bytes")]; print(json.dumps(d,sort_keys=True))' \
    "${dm_tmp}/${f}.json" > "${dm_tmp}/${f}.norm.json"
done
diff "${dm_tmp}/full.norm.json" "${dm_tmp}/resumed.norm.json"
# A skip checkpoint resumed without --draw-mode skip would splice two
# incompatible draw sequences; the snapshot's identity section must refuse
# (exit 2).
status=0
"${cli}" --dataset WV --k 10 --eps 0.3 --json --resume "${dm_tmp}/ck" \
  > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 2 ]]; then
  echo "ERROR: draw-mode mismatch resume: expected exit 2, got ${status}" >&2; exit 1
fi
rm -rf "${dm_tmp}"

echo "== CLI node-kill failover smoke =="
clu_tmp="$(mktemp -d)"
clu_args=(--dataset WV --k 10 --eps 0.3 --json --nodes 3)
"${cli}" "${clu_args[@]}" > "${clu_tmp}/clean.json"
"${cli}" "${clu_args[@]}" --kill-node 1@2 > "${clu_tmp}/killed.json"
# Elastic failover contract: losing a node mid-run may only change the
# modeled clock, the failover bookkeeping, and memory-layout figures
# (rrr_bytes reflects per-device capacity, which resharding repacks) — the
# seeds and every other algorithmic field must be bit-identical to the
# clean cluster run.
for f in clean killed; do
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); [d.pop(k) for k in ("device_seconds","peak_device_bytes","rrr_bytes","communication_seconds","reshard_samples","collective_retries","failed_nodes")]; print(json.dumps(d,sort_keys=True))' \
    "${clu_tmp}/${f}.json" > "${clu_tmp}/${f}.norm.json"
done
diff "${clu_tmp}/clean.norm.json" "${clu_tmp}/killed.norm.json"
# Dropping below quorum without --degrade is unrecoverable: exit 6.
status=0
"${cli}" "${clu_args[@]}" --quorum 3 --kill-node 1@2 > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 6 ]]; then
  echo "ERROR: quorum loss: expected exit 6, got ${status}" >&2; exit 1
fi
# With --degrade the same loss publishes best-effort seeds (exit 0), and so
# does a cluster whose devices run out of memory: one switch, one stderr
# degraded record with the same keys for either cause.
"${cli}" "${clu_args[@]}" --quorum 3 --kill-node 1@2 --degrade \
  > /dev/null 2> "${clu_tmp}/quorum.err"
"${cli}" --dataset WV --k 10 --eps 0.3 --json --nodes 2 --memory-mb 3 --degrade \
  > /dev/null 2> "${clu_tmp}/oom.err"
python3 - "${clu_tmp}/quorum.err" "${clu_tmp}/oom.err" <<'EOF'
import json, sys
records = [json.loads(open(path).read().strip().splitlines()[-1]) for path in sys.argv[1:]]
for path, record in zip(sys.argv[1:], records):
    assert record.get("warning") == "degraded", f"{path}: no degraded record: {record}"
    assert record["degrade_shortfall_samples"] > 0, f"{path}: no sample shortfall: {record}"
assert records[0].keys() == records[1].keys(), f"degraded records differ: {records}"
EOF
rm -rf "${clu_tmp}"

echo "== CLI multi-GPU smoke: --devices 3 matches --nodes 3 and one device =="
mg_tmp="$(mktemp -d)"
mg_args=(--dataset WV --k 10 --eps 0.3 --json)
"${cli}" "${mg_args[@]}" > "${mg_tmp}/single.json"
"${cli}" "${mg_args[@]}" --devices 3 > "${mg_tmp}/devices.json"
"${cli}" "${mg_args[@]}" --nodes 3 > "${mg_tmp}/nodes.json"
# One sharded driver, two interconnects: striping over 3 devices or 3 nodes
# must reproduce the single-device seeds and theta (rrr_sets).
python3 - "${mg_tmp}/single.json" "${mg_tmp}/devices.json" "${mg_tmp}/nodes.json" <<'EOF'
import json, sys
runs = {path: json.load(open(path)) for path in sys.argv[1:]}
for key in ("seeds", "rrr_sets"):
    values = {path: run[key] for path, run in runs.items()}
    assert len({json.dumps(v) for v in values.values()}) == 1, f"{key} differs: {values}"
EOF
# A flag the driver would otherwise ignore or misread is refused with exit 2:
# malformed or out-of-range numbers, fault scripts naming a node past
# --nodes, spill flags that would override --spill-policy off, --devices on
# an engine that runs on one device, and the retired TIM engine.
for bad in "--nodes 2 --devices 4" "--nodes 2 --quorum abc" "--k 0" "--devices 0" \
           "--nodes 2 --kill-node 7@1" "--nodes 2 --quorum 3" "--eps 1" \
           "--spill-policy off --device-mem-budget 20000" \
           "--spill-policy off --spill-host-budget 5000" \
           "--algo tim" "--algo gim --devices 3"; do
  status=0
  # shellcheck disable=SC2086
  "${cli}" "${mg_args[@]}" ${bad} > /dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "ERROR: '${bad}': expected exit 2, got ${status}" >&2; exit 1
  fi
done
rm -rf "${mg_tmp}"

echo "== CLI spill smoke: quarter-budget and disk-tier runs match unconstrained seeds =="
spill_tmp="$(mktemp -d)"
spill_args=(--dataset WV --k 10 --eps 0.3 --json)
"${cli}" "${spill_args[@]}" > "${spill_tmp}/unconstrained.json"
budget="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["rrr_bytes"] // 4)' \
  "${spill_tmp}/unconstrained.json")"
"${cli}" "${spill_args[@]}" --device-mem-budget "${budget}" \
  > "${spill_tmp}/budgeted.json"
# Same budget with the compressed host tier capped at 1/8 of rrr_bytes, so
# blocks LRU-evict to disk: the disk tier's write, read-back and CRC check
# run end to end.
"${cli}" "${spill_args[@]}" --device-mem-budget "${budget}" \
  --spill-host-budget "$((budget / 2))" --metrics-json "${spill_tmp}/disk.metrics.json" \
  > "${spill_tmp}/disk.json"
# Spill contract: a 4x smaller device budget may only change the modeled
# clock, memory figures, and the spill bookkeeping — the seeds and every
# other algorithmic field must be bit-identical, at full theta.
for f in unconstrained budgeted disk; do
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); [d.pop(k, None) for k in ("device_seconds","peak_device_bytes","rrr_bytes","spilled_sets","spill_bytes_compressed")]; print(json.dumps(d,sort_keys=True))' \
    "${spill_tmp}/${f}.json" > "${spill_tmp}/${f}.norm.json"
done
diff "${spill_tmp}/unconstrained.norm.json" "${spill_tmp}/budgeted.norm.json"
diff "${spill_tmp}/unconstrained.norm.json" "${spill_tmp}/disk.norm.json"
python3 - "${spill_tmp}/budgeted.json" "${spill_tmp}/disk.json" \
  "${spill_tmp}/disk.metrics.json" <<'EOF'
import json, sys
for path in sys.argv[1:3]:
    d = json.load(open(path))
    assert d["spilled_sets"] > 0, f"{path}: budgeted run never spilled"
    assert not d["degraded"], f"{path}: budgeted run degraded instead of spilling"
counters = json.load(open(sys.argv[3]))["metrics"]["counters"]
for name in ("spill.disk_writes", "spill.disk_reads"):
    assert counters.get(name, 0) > 0, f"host-budgeted run never used the disk tier ({name})"
EOF
# Spill and OOM degrade run on every topology: two devices under the same
# per-device budget must spill to the single-device seeds, and two devices
# too small for the collection must degrade to k best-effort seeds (exit 0).
"${cli}" "${spill_args[@]}" --devices 2 --device-mem-budget "${budget}" \
  > "${spill_tmp}/devices.json"
"${cli}" "${spill_args[@]}" --devices 2 --memory-mb 3 --degrade \
  > "${spill_tmp}/degraded.json" 2> /dev/null
python3 - "${spill_tmp}/unconstrained.json" "${spill_tmp}/devices.json" \
  "${spill_tmp}/degraded.json" <<'EOF'
import json, sys
single, devices, degraded = (json.load(open(path)) for path in sys.argv[1:])
assert devices["seeds"] == single["seeds"], "2-device spill changed the seeds"
assert devices["spilled_sets"] > 0, "2-device budgeted run never spilled"
assert degraded["degraded"], "2-device OOM run did not degrade"
assert len(degraded["seeds"]) == 10, "2-device degraded run returned the wrong seed count"
EOF
rm -rf "${spill_tmp}"

echo "== CLI stdout-conflict rejection (at most one '-' artifact) =="
# --metrics-json - / --trace-out - / --profile-out - all write to stdout;
# any two at once would interleave artifacts, so the CLI must refuse with
# the bad-arguments exit code (2) before running anything.
for pair in "--metrics-json - --trace-out -" \
            "--metrics-json - --profile-out -" \
            "--trace-out - --profile-out -"; do
  status=0
  # shellcheck disable=SC2086
  "${cli}" --dataset WV --k 5 --eps 0.5 ${pair} > /dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "ERROR: '${pair}': expected exit 2, got ${status}" >&2; exit 1
  fi
done

echo "== CLI wall timers: --metrics-json alone carries the wall section =="
# The registry keeps the hot-path wall timers, so a report written without
# --profile-out still says where host time went.
"${cli}" --dataset WV --k 10 --metrics-json - | python3 -c '
import json, sys
wall = json.load(sys.stdin)["wall"]
assert isinstance(wall, dict) and wall, f"wall section is {wall!r}"
for name in ("sampler.wave", "rng.refill", "codec.decode", "selector.preprocess",
             "selector.pick"):
    assert wall.get(name, {}).get("entries", 0) > 0, f"no {name} entries in {wall}"
print("wall timers:", ", ".join(sorted(wall)))'

echo "== CLI modeled-clock determinism: plain vs taskset -c 0 =="
# Commits are decided in slot order, so modeled time and peak device bytes
# must not depend on how many cores the host schedules the pool threads on.
if command -v taskset > /dev/null 2>&1; then
  det_tmp="$(mktemp -d)"
  for extra in "" "--model lt" "--algo gim" "--nodes 2 --devices-per-node 2"; do
    # shellcheck disable=SC2086
    "${cli}" --dataset WV --k 50 --json ${extra} > "${det_tmp}/plain.json"
    # shellcheck disable=SC2086
    taskset -c 0 "${cli}" --dataset WV --k 50 --json ${extra} > "${det_tmp}/pinned.json"
    python3 - "${det_tmp}/plain.json" "${det_tmp}/pinned.json" "${extra:-ic}" <<'EOF'
import json, sys
plain, pinned = (json.load(open(path)) for path in sys.argv[1:3])
for key in ("device_seconds", "peak_device_bytes"):
    assert plain[key] == pinned[key], \
        f"{sys.argv[3]}: {key} differs: plain {plain[key]!r} vs taskset {pinned[key]!r}"
EOF
  done
  rm -rf "${det_tmp}"
else
  echo "SKIP: taskset not found; modeled-clock determinism smoke not run"
fi

echo "== CLI commit-reject bound: an overflowing wave stops at the overflow =="
# Each of a wave's blocks finishes the slot it holds when the wave runs out
# of R capacity, so at most one rejected slot per block is generated:
# rrr.commit_rejects <= sampler.waves x blocks. eim_cli's device has 84 SMs
# and the sampler launches two blocks per SM.
rej_tmp="$(mktemp -d)"
for extra in "--dataset WV" "--dataset WV --model lt" "--dataset CA --eps 0.15"; do
  # shellcheck disable=SC2086
  "${cli}" --k 50 ${extra} --metrics-json "${rej_tmp}/m.json" > /dev/null
  python3 - "${rej_tmp}/m.json" "${extra}" 168 <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
rejects, waves = counters["rrr.commit_rejects"], counters["sampler.waves"]
blocks = int(sys.argv[3])
assert rejects <= waves * blocks, \
    f"{sys.argv[2]}: rrr.commit_rejects {rejects} > {waves} waves x {blocks} blocks"
print(f"{sys.argv[2]}: rrr.commit_rejects {rejects} <= {waves} x {blocks}")
EOF
done
rm -rf "${rej_tmp}"

echo "== traced benchmark + artifact validation =="
bench_tmp="$(mktemp -d)"
trap 'rm -rf "${bench_tmp}"' EXIT
EIM_BENCH_DATASETS=WV EIM_BENCH_FAST=1 \
  EIM_BENCH_JSON="${bench_tmp}/BENCH_fig7_ic.json" \
  EIM_BENCH_TRACE="${bench_tmp}/TRACE_fig7_ic.json" \
  "${build_dir}/bench/bench_fig7_ic"
"${build_dir}/tools/bench_diff" --validate \
  "${bench_tmp}/BENCH_fig7_ic.json" "${bench_tmp}/TRACE_fig7_ic.json"

echo "== benchmark regression diff vs committed baseline =="
baseline="${repo_root}/bench/baselines/BENCH_fig7_ic_WV_fast.json"
bench_gate "${build_dir}/tools/bench_diff" "${baseline}" "${bench_tmp}/BENCH_fig7_ic.json"

echo "== Release perf smoke (bench_micro + wall-clock diff, warn-only) =="
# Wall-clock numbers from a sanitizer build are meaningless, so the perf
# smoke uses a separate Release build. Never pass -DEIM_NATIVE=ON here: the
# committed baselines must stay comparable across machines.
perf_dir="${repo_root}/build-perf"
cmake -B "${perf_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${perf_dir}" -j "${jobs}" --target bench_micro bench_fig7_ic bench_multi_node bench_spill bench_diff prof_report eim_cli
EIM_BENCH_JSON="${bench_tmp}/BENCH_micro.json" \
  "${perf_dir}/bench/bench_micro" --benchmark_min_time=0.2 > /dev/null
"${perf_dir}/tools/bench_diff" --validate "${bench_tmp}/BENCH_micro.json"
micro_baseline="${repo_root}/bench/baselines/BENCH_micro.json"
if [[ -f "${micro_baseline}" ]]; then
  # Micro cells carry only wall_seconds, which bench_diff treats warn-only —
  # the diff prints the host-time trajectory but cannot fail the gate.
  "${perf_dir}/tools/bench_diff" "${micro_baseline}" "${bench_tmp}/BENCH_micro.json" || true
fi
# EIM_BENCH_PROFILE attaches the sampling profiler to the first cell, and
# every eIM cell records the registry's wall timers; the --threshold 0 diff
# below then doubles as the proof that neither changes a modeled row.
EIM_BENCH_DATASETS=WV EIM_BENCH_FAST=1 \
  EIM_BENCH_JSON="${bench_tmp}/BENCH_fig7_ic_release.json" \
  EIM_BENCH_PROFILE="${bench_tmp}/PROF_fig7_ic.folded" \
  "${perf_dir}/bench/bench_fig7_ic" > /dev/null

echo "-- profiler smoke: folded stacks symbolize and bucket --"
prof_file="${bench_tmp}/PROF_fig7_ic.folded"
if [[ ! -s "${prof_file}" ]]; then
  echo "ERROR: ${prof_file} is missing or empty" >&2; exit 1
fi
if head -n 1 "${prof_file}" | grep -q '^# profiler-unsupported'; then
  echo "SKIP: sampling profiler unsupported on this platform (wall timers still recorded)"
else
  # At least 60% of samples must carry a symbolized frame — the tripwire
  # for a build that lost -rdynamic (CMAKE_ENABLE_EXPORTS) and would
  # otherwise emit all-hex stacks that no one can attribute.
  "${perf_dir}/tools/prof_report" --min-symbolized 0.6 "${prof_file}"
  # A selection-heavy run (CA stand-in, four select calls): at least 97% of
  # its samples must land in a named bucket. Frames prof_report cannot name
  # (a function with internal linkage, or one renamed without updating the
  # bucket table) fall into "other". Five runs on a 4-vCPU host bucketed
  # 96.0-97.0% when selection ran through run_sharded's local lambdas and
  # 98.4-99.1% since it runs through SelectionIndex::extend.
  sel_prof="${bench_tmp}/PROF_ca_select.folded"
  "${perf_dir}/tools/eim_cli" --dataset CA --k 50 --eps 0.15 --profile-hz 997 \
    --profile-out "${sel_prof}" > /dev/null
  "${perf_dir}/tools/prof_report" --json "${sel_prof}" | python3 -c '
import json, sys
share = json.load(sys.stdin)["bucketed_fraction"]
print(f"selection-heavy profile: {share:.1%} of samples bucketed (floor 97%)")
sys.exit(0 if share >= 0.97 else 1)'
fi

# --threshold 0: host-side restructuring (bulk RNG, draw buffers, fused
# commits) must leave the modeled rows bit-identical to the committed
# baseline — any modeled drift at all means the cost model changed, which
# deserves an intentional baseline refresh, not a tolerance window. The
# profiled run feeding this diff also proves observation changes nothing.
echo "-- fig7 WV fast: modeled time gated bit-identical, wall warn-only --"
bench_gate "${perf_dir}/tools/bench_diff" "${baseline}" \
  "${bench_tmp}/BENCH_fig7_ic_release.json" --threshold 0

echo "-- multi-node scaling curve: modeled time gated bit-identical --"
# Full-envelope run (WV, k=50, eps=0.02 — the fig7 envelope): the committed
# baseline proves near-linear modeled scaling (>=0.8 parallel efficiency at
# 8 nodes) plus a priced node-kill failover cell. Modeled rows are
# deterministic, so any drift means the cluster cost model changed.
mn_baseline="${repo_root}/bench/baselines/BENCH_multi_node.json"
EIM_BENCH_JSON="${bench_tmp}/BENCH_multi_node.json" \
  "${perf_dir}/bench/bench_multi_node"
"${perf_dir}/tools/bench_diff" --validate "${bench_tmp}/BENCH_multi_node.json"
bench_gate "${perf_dir}/tools/bench_diff" "${mn_baseline}" \
  "${bench_tmp}/BENCH_multi_node.json" --threshold 0

echo "-- spill tax curve: modeled time gated bit-identical --"
# Fig7's WV cell replayed under a device budget of 1/4 its own footprint:
# the committed baseline proves full-theta completion with bit-identical
# seeds and prices the spill tax. Modeled rows are deterministic, so any
# drift means the spill path or the disk-tier cost model changed.
spill_baseline="${repo_root}/bench/baselines/BENCH_spill.json"
EIM_BENCH_FAST=1 EIM_BENCH_JSON="${bench_tmp}/BENCH_spill.json" \
  "${perf_dir}/bench/bench_spill"
"${perf_dir}/tools/bench_diff" --validate "${bench_tmp}/BENCH_spill.json"
bench_gate "${perf_dir}/tools/bench_diff" "${spill_baseline}" \
  "${bench_tmp}/BENCH_spill.json" --threshold 0

echo "-- draw-mode spread equivalence: Exact vs Skip seeds (hard gate) --"
# bench_quality's second section runs eIM in both draw modes on the fig7/
# fig8 envelopes and exits nonzero itself when the expected spreads deviate
# beyond its tolerance — the gate that lets Skip ship without a bit-identity
# contract. Unlike the modeled-time diffs this is always fatal: a spread
# regression means the fast-draw math is wrong, not that a cost model moved.
cmake --build "${perf_dir}" -j "${jobs}" --target bench_quality
EIM_BENCH_DATASETS=WV EIM_BENCH_FAST=1 "${perf_dir}/bench/bench_quality"

echo "-- repository benchmark smoke: correctness checks + seed-1 digests (hard gate) --"
# Two solves per workload in a Release build (benchmark/build/). At seed 1
# it checks the recorded Exact seed digests of ic_exact, ic_select and
# ic_cluster, so a host-side sampler or scratch change that perturbs any RRR
# collection fails here; it exits nonzero on any failed check.
"${repo_root}/benchmark/run.sh" --smoke > /dev/null

echo "All checks passed."
