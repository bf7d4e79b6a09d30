// eIM's RRR-set sampling engine (paper §3.2-§3.4, Algorithm 2).
//
// One warp per block; every block owns a fixed slice of a pre-allocated
// global-memory queue pool (eIM's replacement for gIM's shared-memory queue
// + dynamic spill), so sampling performs *zero* in-kernel allocations. The
// queue doubles as the RRR set: on completion it is sorted and committed
// into the collection, whose slot-order admission stands for the kernel's
// one ordered offset claim (Fig. 2; rrr_collection.hpp). The traversal
// itself is the shared kernel in eim/traversal.hpp; this engine supplies
// its queue sink, the capacity waves and the commit charges.
//
// Work distribution follows the paper's round-robin assignment: block b of
// B takes the pending slots b, b + B, b + 2B, ... (see run_wave).
//
// Determinism contract: sample i draws from the stream
// (rng_seed, derive_stream(imm::kSampleStreamTag, i, attempt)) and consumes
// randomness in CSC order — the exact contract of the serial reference — so
// eIM produces the *identical* collection R as run_imm_serial for identical
// parameters, which the integration tests assert. Commits, and with them
// the waves and every modeled charge, are decided in slot order, so they
// repeat bit-for-bit on any host.
#pragma once

#include <cstdint>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/traversal.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

/// Cap on capacity-growth waves before sample_assigned declares the sampler
/// non-convergent. The split: an unconstrained run doubles its
/// reservation every wave, so 64 waves already cover any realistic growth
/// curve and a 65th means the estimator is broken; under an active spill
/// budget the device array intentionally stays small and refills every few
/// waves, so convergence legitimately takes thousands of waves (4096 bounds
/// a quarter-footprint run with room to spare).
[[nodiscard]] constexpr int max_sampler_waves(bool spill_active) noexcept {
  return spill_active ? 4096 : 64;
}

class EimSampler {
 public:
  EimSampler(gpusim::Device& device, const graph::Graph& g,
             graph::DiffusionModel model, const imm::ImmParams& params,
             const EimOptions& options);

  /// Extend `collection` so it holds `target` sets (no-op if it already
  /// does), sample i drawing from stream i. Launches as many kernel waves as
  /// capacity growth requires.
  void sample_to(DeviceRrrCollection& collection, std::uint64_t target);

  /// Append one set per entry of `global_indices`: entry j lands in local
  /// slot collection.num_sets() + j but draws from the stream of global
  /// sample id global_indices[j]. This is the driver's entry point
  /// (src/eim/src/sharded.hpp): each shard samples the ids striped onto
  /// it, and the union over shards is bit-identical to one device's run.
  void sample_assigned(DeviceRrrCollection& collection,
                       std::span<const std::uint64_t> global_indices);

  /// Regenerate the decoded members of global sample `global_id` into `out`
  /// (sorted, post source-elimination — exactly what was committed).
  /// Generation is deterministic per global id, so this is the spill
  /// store's quarantine-repair source for torn disk blocks: the rebuilt set
  /// is bit-identical to the evicted one. Runs as its own single-block
  /// launch ("eim::resample") so the recovery cost lands on the modeled
  /// timeline; does not touch singleton or discard accounting.
  void resample_set(std::uint64_t global_id, std::vector<graph::VertexId>& out);

  /// Source-only samples regenerated so far (§3.4 accounting).
  [[nodiscard]] std::uint64_t singletons_discarded() const noexcept {
    return singletons_discarded_;
  }

  [[nodiscard]] std::uint32_t num_blocks() const noexcept { return num_blocks_; }

 private:
  /// Meter the sort + commit traffic for a finished set of length `len`.
  void charge_commit(gpusim::BlockContext& ctx, std::uint32_t len) const;

  gpusim::Device* device_;
  EimOptions options_;
  std::uint32_t num_blocks_;

  /// Device charge for the queue pool + M arrays (held for the sampler's
  /// lifetime, like eIM's persistent global-memory pool).
  gpusim::DeviceBuffer<std::uint8_t> pool_charge_;

  /// Device charge for the fast-draw sidecar, when traversal_.plan is set.
  gpusim::DeviceBuffer<std::uint8_t> plan_charge_;

  Traversal traversal_;
  std::vector<WaveScratch> scratch_;  ///< one per host pool thread
  std::uint64_t singletons_discarded_ = 0;
};

}  // namespace eim::eim_impl
