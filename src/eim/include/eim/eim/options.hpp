// Configuration and result types for the eIM backend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eim/imm/params.hpp"
#include "eim/support/retry.hpp"

namespace eim::support::metrics {
class MetricsRegistry;
}  // namespace eim::support::metrics

namespace eim::support::trace {
class TraceRecorder;
}  // namespace eim::support::trace

namespace eim::eim_impl {

struct CheckpointState;

/// Which kernel shape scans the RRR sets during seed selection (§3.5).
enum class ScanStrategy {
  /// One thread per RRR set — eIM's choice; scales with T_n.
  ThreadPerSet,
  /// One warp per RRR set — the baseline design; coalesced but only W_n-way
  /// parallel. Kept for the Fig. 3 ablation.
  WarpPerSet,
};

/// How the LT kernel identifies the activating in-neighbor (§3.3).
enum class LtActivationMethod {
  /// Warp prefix sum via __shfl_up_sync: O(log d) steps. eIM's choice.
  PrefixScan,
  /// Shared-sum atomicAdd per lane: O(d) serialized steps. Ablation only.
  AtomicAdd,
};

/// How the sampler spends randomness per edge examined (docs/PERFORMANCE.md
/// "Draw efficiency").
enum class DrawMode {
  /// One Bernoulli draw per scanned IC in-edge, one prefix scan per LT step
  /// — the serial reference's draw order. Modeled output is bit-identical
  /// across every configuration and gated by `bench_diff --threshold 0`.
  Exact,
  /// Fast-draw mode: IC geometric skip-ahead over uniform-weight vertices
  /// (one uniform per failure run) and O(1) LT alias-table picks, using the
  /// graph's DrawPlan sidecar. Consumes the RNG stream differently from
  /// Exact, so it is gated by `bench_quality` spread equivalence instead of
  /// bit parity. Still deterministic for a fixed seed: the same seeds come
  /// out regardless of device count, spill pressure, or resume point.
  Skip,
};

/// What the driver does when the run cannot reach its theta target: the
/// device runs out of memory while growing the RRR collection, or a
/// cluster's alive nodes fall below quorum (docs/RESILIENCE.md
/// "Degradation").
enum class DegradePolicy {
  /// Propagate the cause — DeviceOutOfMemoryError (the paper's "OOM" cell
  /// behavior) or ClusterQuorumError.
  Throw,
  /// Stop theta refinement at the committed prefix, keep every committed
  /// set, and return best-effort seeds with EimResult::degraded set.
  Degrade,
};

/// Where memory pressure goes when the RRR collection outgrows the device
/// (docs/RESILIENCE.md "Memory-pressure tiers"). Spilling preserves the θ
/// target — and therefore the exact seeds — by trading modeled time for
/// device memory; DegradePolicy only sees an OOM after the spill tiers are
/// exhausted too.
enum class SpillPolicy {
  /// No spill hierarchy: DegradePolicy alone decides (the pre-spill behavior).
  Off,
  /// Evict cold sets device -> compressed host -> disk. An OOM reaches
  /// DegradePolicy only when the hierarchy itself cannot make progress (a single
  /// set larger than the whole device budget).
  Spill,
};

struct SpillOptions {
  SpillPolicy policy = SpillPolicy::Off;
  /// Device-byte cap on the packed R element array (per-set offset/length
  /// metadata stays device-resident — it indexes the spilled sets too);
  /// 0 = no cap, spill only on genuine allocation failure.
  std::uint64_t device_budget_bytes = 0;
  /// Compressed host-tier cap; past it blocks LRU-evict to disk (0 = none).
  std::uint64_t host_budget_bytes = 0;
  /// Disk-tier directory (empty = per-run temp dir, removed afterwards).
  std::string dir;
  /// Sets per compressed block and decoded blocks kept hot in staging.
  std::uint32_t sets_per_block = 1024;
  std::uint32_t staging_blocks = 4;
};

struct EimOptions {
  /// §3.1: log-encode the network CSC and the RRR array R.
  bool log_encode = true;
  /// §3.4: drop source vertices, regenerate source-only samples.
  bool eliminate_sources = true;
  ScanStrategy scan = ScanStrategy::ThreadPerSet;
  LtActivationMethod lt_activation = LtActivationMethod::PrefixScan;
  /// Opt-in fast-draw sampling (geometric skip-ahead + alias tables).
  /// Recorded in checkpoint identity: a resume cannot silently switch modes.
  DrawMode draw_mode = DrawMode::Exact;
  /// Sampler blocks to launch (0 = 2 per SM, the self-scheduling default).
  std::uint32_t sampler_blocks = 0;
  /// Optional run-wide instrumentation sink (not owned; must outlive the
  /// run). When set, the pipeline records phase timers and commit/regrow/
  /// decode counters into it, plus wall timers around the real hot scopes —
  /// sampler waves, RNG refills, bulk codec decode/encode, commit publish,
  /// selector preprocessing, lazy-greedy picks, pool dispatch. Wall timers
  /// never touch the modeled clock, so modeled output stays bit-identical;
  /// null skips every site without even a clock read — see
  /// docs/OBSERVABILITY.md.
  support::metrics::MetricsRegistry* metrics = nullptr;
  /// Optional span recorder (not owned; must outlive the run). When set,
  /// the pipeline records the phase -> round -> wave hierarchy plus fault/
  /// degrade instants against each device's modeled clock, exportable as a
  /// Chrome trace-event file — see docs/OBSERVABILITY.md. Null skips every
  /// site, like `metrics`.
  support::trace::TraceRecorder* trace = nullptr;
  /// Behavior when device memory runs out mid-collection-growth or a
  /// cluster loses quorum.
  DegradePolicy degrade_policy = DegradePolicy::Throw;
  /// Tiered spill hierarchy riding below DegradePolicy (device -> compressed
  /// host -> disk); modeled seeds stay bit-identical to an unconstrained
  /// run whenever the hierarchy absorbs the pressure.
  SpillOptions spill;
  /// Bounded retry for transient faults around sampler launches, transfers
  /// and cluster collectives; backoff is deterministic modeled time.
  support::RetryPolicy retry;
  /// Directory for round-boundary snapshots (empty = no checkpointing).
  /// Created on first write; each snapshot is published atomically, so a
  /// crash mid-write leaves the previous snapshot — or none — never a torn
  /// file. See eim/checkpoint.hpp and docs/RESILIENCE.md.
  std::string checkpoint_dir;
  /// Restored state to continue from (not owned; must outlive the run;
  /// null = fresh run). Obtained from load_checkpoint() and validated
  /// against this run's graph/model/params — the resumed run's seeds and
  /// spread estimate are bit-identical to an uninterrupted same-seed run.
  const CheckpointState* resume = nullptr;
};

/// ImmResult plus the device-side metrics the paper's figures report. One
/// result for every topology: run_eim, run_eim_multi and run_eim_cluster
/// all return it.
struct EimResult : imm::ImmResult {
  /// Modeled device seconds (kernel + transfer + allocation).
  double device_seconds = 0.0;
  double kernel_seconds = 0.0;
  double transfer_seconds = 0.0;
  /// Peak simulated device memory.
  std::uint64_t peak_device_bytes = 0;
  /// Bytes of R + O + C as stored (packed if log_encode).
  std::uint64_t rrr_bytes = 0;
  /// Bytes the same R + O + C would occupy uncompressed.
  std::uint64_t rrr_raw_bytes = 0;
  /// Bytes of the network CSC as stored on device.
  std::uint64_t network_bytes = 0;
  std::uint64_t network_raw_bytes = 0;
  /// In-kernel dynamic allocations (always 0 for eIM; nonzero for gIM).
  std::uint64_t device_mallocs = 0;
  /// DegradePolicy::Degrade froze theta: the seeds are best-effort over the
  /// committed sets. Fault-free runs stay false.
  bool degraded = false;
  /// Samples short of the largest theta target the degraded run was given.
  std::uint64_t degrade_shortfall_samples = 0;
  /// Bytes the degraded run fell short by: requested - available at the OOM
  /// that froze it, or, for a quorum loss, the missing samples priced at
  /// the committed sets' average stored size.
  std::uint64_t degrade_shortfall_bytes = 0;
  /// Sets evicted into the tiered spill store (0 when SpillPolicy::Off or
  /// the device never came under pressure).
  std::uint64_t spilled_sets = 0;
  /// Compressed footprint of the spilled sets across host + disk tiers.
  std::uint64_t spill_bytes_compressed = 0;
  /// Modeled seconds of traffic between failure domains, as the
  /// interconnect prices it: multi-GPU counts its count reductions, pick
  /// exchanges and failover redistributions, a cluster its network ledger's
  /// transfer time (reshards included), and one device none.
  double communication_seconds = 0.0;
  /// Failure domains retired by failover, in order of death: device indices
  /// for run_eim_multi, node indices for run_eim_cluster.
  std::vector<std::uint32_t> failed_domains;
  /// Committed RRR sets the retired domains held, regenerated on survivors.
  std::uint64_t regenerated_sets = 0;
  /// Sample ids respilled onto survivors: the regenerated sets plus the
  /// retired domains' in-flight batches. The survivors receive each as an
  /// 8-byte id.
  std::uint64_t respilled_samples = 0;
};

}  // namespace eim::eim_impl
