// Seed selection (paper §3.5, Algorithm 3): one greedy core for every
// topology.
//
// The greedy answer is computed exactly on a host mirror of the collection
// (inverted index + CELF lazy heap — bit-identical to the serial
// reference). What a topology adds is the *device cost* of each pick, which
// a PickPricer supplies. On one device that is §3.5's arg-max kernel plus
// the count-update kernel, whose makespan packs running aggregates
// (uncovered sets, their search cost, decrement traffic) onto T_n threads
// (ThreadPerSet) or W_n warps (WarpPerSet) — the paper's
// ceil(N/W_n)*C_w vs ceil(N/T_n)*C_t comparison, with C_w < C_t because
// warp scans coalesce. Sharded runs price a pick as the slowest shard's
// scan plus the interconnect's pick exchange (src/eim/src/sharded.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/thread_pool.hpp"

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

/// Host mirror of a collection in set-id order: set i's members are
/// flat[starts[i], starts[i + 1]), ascending.
struct SelectionMirror {
  std::vector<std::uint32_t> lengths;
  std::vector<std::uint64_t> starts;
  std::vector<graph::VertexId> flat;
};

/// Decode `num_sets` sets into a mirror: set i has `length(i)` members and
/// `decode(i, out)` writes them. The bulk decode runs parallel across sets
/// (disjoint output slices, so the layout is the serial one) unless
/// `serial`: spilled sets stream up through a store's staging pool, which
/// is not thread-safe and whose modeled transfer charges must land on the
/// timeline in a deterministic order — so they decode in set order.
template <typename Length, typename Decode>
[[nodiscard]] SelectionMirror decode_mirror(std::uint64_t num_sets, bool serial,
                                            support::profiler::WallProfile* profile,
                                            Length&& length, Decode&& decode) {
  SelectionMirror mirror;
  mirror.lengths.resize(num_sets);
  mirror.starts.assign(num_sets + 1, 0);
  for (std::uint64_t i = 0; i < num_sets; ++i) {
    mirror.lengths[i] = length(i);
    mirror.starts[i + 1] = mirror.starts[i] + mirror.lengths[i];
  }
  mirror.flat.resize(mirror.starts[num_sets]);
  const support::profiler::ScopedWallTimer decode_scope(
      profile != nullptr ? &profile->timer("codec.decode") : nullptr);
  const auto decode_one = [&](std::uint64_t i) {
    decode(i, std::span<graph::VertexId>(mirror.flat.data() + mirror.starts[i],
                                         mirror.lengths[i]));
  };
  if (serial) {
    for (std::uint64_t i = 0; i < num_sets; ++i) decode_one(i);
  } else {
    support::ThreadPool::global().parallel_for(
        0, num_sets, [&](std::size_t i) { decode_one(i); }, /*grain=*/0);
  }
  return mirror;
}

/// The modeled device cost of one greedy selection: the only part of it
/// that differs between topologies. greedy_select reports every set a pick
/// covers, then charges the pick; a filler pick (every set already
/// covered) covers nothing but is still charged.
class PickPricer {
 public:
  virtual ~PickPricer() = default;
  /// Once, before the first pick: the mirror the picks run over.
  virtual void start(const SelectionMirror& mirror) = 0;
  /// The current pick covered `set_id`.
  virtual void cover(std::uint64_t set_id) = 0;
  /// Charge the current pick's kernels (and exchange, if any).
  virtual void charge_pick() = 0;
};

/// §3.5 on one device: per pick, an arg-max reduction over C, then the
/// count-update scan of `strategy`. The pricer holds the F flags (one byte
/// per set) in device memory for its lifetime, so make it before the
/// mirror is decoded and keep it for the whole selection.
[[nodiscard]] std::unique_ptr<PickPricer> make_scan_kernel_pricer(
    gpusim::Device& device, ScanStrategy strategy, graph::VertexId num_vertices,
    std::uint64_t num_sets, support::metrics::MetricsRegistry* metrics);

/// Exact greedy max-coverage over `mirror`: k picks, each the vertex with
/// the most uncovered sets (smallest id on ties); once every set is covered
/// the remaining picks are the smallest unused ids. Counts come from the
/// mirror itself (its inverted-index bucket sizes), so they always describe
/// exactly the sets selected over. `pricer` charges every pick.
[[nodiscard]] imm::SelectionResult greedy_select(
    const SelectionMirror& mirror, graph::VertexId n, std::uint32_t k, PickPricer& pricer,
    ArgMaxMode mode = ArgMaxMode::kLazyHeap,
    support::metrics::MetricsRegistry* metrics = nullptr,
    support::profiler::WallProfile* profile = nullptr);

/// Single-device selection over a DeviceRrrCollection: decodes the mirror
/// and runs greedy_select under the §3.5 kernel pricer.
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
