// Seed selection on the simulated device (paper §3.5, Algorithm 3).
//
// The greedy answer itself is computed exactly (host-side inverted index —
// bit-identical to the serial reference); what the simulator adds is the
// *device cost* of each pick:
//
//  * an arg-max reduction over C (one kernel per pick), and
//  * the count-update kernel: every launched unit reads F for its sets,
//    binary-searches the picked vertex in the uncovered ones, and on a hit
//    covers the set and decrements C for its members.
//
// The update kernel's makespan is derived from running aggregates
// (uncovered-set count, their summed search cost, decrement traffic) packed
// onto the strategy's parallelism: T_n threads (ThreadPerSet) or W_n warps
// (WarpPerSet). This yields exactly the paper's ceil(N/W_n)*C_w vs
// ceil(N/T_n)*C_t comparison, with C_w < C_t because warp scans coalesce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/support/bits.hpp"

namespace eim::eim_impl {

/// Scalar binary-search cost in global reads: probes of one sorted set of
/// `len` elements (this selector's and the sharded driver's scan model).
[[nodiscard]] inline std::uint64_t binsearch_probes(std::uint32_t len) {
  return 1 + support::ceil_log2(std::max<std::uint32_t>(2, len));
}

/// Build the inverted index vertex -> set ids over `num_sets` flattened
/// sets (`starts` holds num_sets + 1 offsets into `flat`). Deterministic
/// regardless of parallelism: sets are split into contiguous chunks, pass 1
/// counts each chunk's per-vertex occurrences, a serial prefix turns the
/// histograms into per-chunk write bases, and pass 2 scatters set ids at
/// those bases — reproducing the serial layout exactly (set ids ascending
/// within each vertex's bucket).
void build_inverted_index(std::span<const graph::VertexId> flat,
                          std::span<const std::uint64_t> starts, std::uint64_t num_sets,
                          graph::VertexId n, std::vector<std::uint64_t>& index_offsets,
                          std::vector<std::uint64_t>& index_sets);

/// How the host computes each pick's arg-max. Both produce bit-identical
/// seed sequences (same tie-break: smallest vertex id among maximal
/// counts); LinearReference exists so tests can property-check the heap
/// against the obviously-correct O(n)-per-pick scan.
enum class ArgMaxMode : std::uint8_t {
  kLazyHeap,         ///< CELF-style lazy max-heap (default, O(log n) amortized)
  kLinearReference,  ///< full scan per pick — test-only reference
};

class GpuSeedSelector {
 public:
  GpuSeedSelector(gpusim::Device& device, ScanStrategy strategy)
      : device_(&device), strategy_(strategy) {}

  /// Test hook: switch the host arg-max implementation. Modeled device
  /// charges are identical either way.
  void set_argmax_mode(ArgMaxMode mode) noexcept { argmax_mode_ = mode; }
  [[nodiscard]] ArgMaxMode argmax_mode() const noexcept { return argmax_mode_; }

  /// Run the full k-pick greedy over the collection's current contents,
  /// charging modeled kernel time per pick. Safe to call repeatedly as the
  /// collection grows (each call re-reads it).
  [[nodiscard]] imm::SelectionResult select(const DeviceRrrCollection& collection,
                                            std::uint32_t k);

  [[nodiscard]] ScanStrategy strategy() const noexcept { return strategy_; }

  /// Wire per-pick kernel/decode counters into `registry` (nullptr
  /// detaches). The registry must outlive the selector or the next attach.
  void attach_metrics(support::metrics::MetricsRegistry* registry) noexcept {
    metrics_ = registry;
  }

  /// Wire host wall-clock attribution (codec.decode, selector.preprocess,
  /// selector.pick) into `profile` (nullptr detaches). The profile must
  /// outlive the selector or the next attach.
  void attach_profile(support::profiler::WallProfile* profile) noexcept {
    profile_ = profile;
  }

 private:
  gpusim::Device* device_;
  ScanStrategy strategy_;
  ArgMaxMode argmax_mode_ = ArgMaxMode::kLazyHeap;
  support::metrics::MetricsRegistry* metrics_ = nullptr;
  support::profiler::WallProfile* profile_ = nullptr;
};

}  // namespace eim::eim_impl
