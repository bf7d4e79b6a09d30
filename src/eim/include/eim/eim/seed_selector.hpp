// Seed selection (paper §3.5, Algorithm 3): one greedy core for every
// topology.
//
// The greedy answer is computed exactly on a host SelectionIndex of the
// collection (inverted index + CELF lazy heap — bit-identical to the serial
// reference). The index only ever grows: each select call decodes and
// indexes just the sets added since the last one. What a topology adds is
// the *device cost* of each pick, which a PickPricer supplies. On one device
// that is §3.5's arg-max kernel plus the count-update kernel, whose makespan
// packs running aggregates (uncovered sets, their search cost, decrement
// traffic) onto T_n threads (ThreadPerSet) or W_n warps (WarpPerSet) — the
// paper's ceil(N/W_n)*C_w vs ceil(N/T_n)*C_t comparison, with C_w < C_t
// because warp scans coalesce. Sharded runs price a pick as the slowest
// shard's scan plus the interconnect's pick exchange
// (src/eim/src/sharded.cpp).
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
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {

/// Scalar binary-search cost in global reads: probes of one sorted set of
/// `len` elements (this selector's and the sharded driver's scan model).
[[nodiscard]] inline std::uint64_t binsearch_probes(std::uint32_t len) {
  return 1 + support::ceil_log2(std::max<std::uint32_t>(2, len));
}

/// How the host computes each pick's arg-max. Both produce bit-identical
/// seed sequences (same tie-break: smallest vertex id among maximal
/// counts); LinearReference exists so tests can property-check the heap
/// against the obviously-correct O(n)-per-pick scan.
enum class ArgMaxMode : std::uint8_t {
  kLazyHeap,         ///< CELF-style lazy max-heap (default, O(log n) amortized)
  kLinearReference,  ///< full scan per pick — test-only reference
};

/// A collection's sets in global set-id order, as SelectionIndex::extend
/// reads them.
class SetSource {
 public:
  virtual ~SetSource() = default;
  [[nodiscard]] virtual std::uint32_t length(std::uint64_t i) const = 0;
  /// Set i lives in a spill tier: reading it streams it back up through a
  /// store's staging pool, which charges modeled transfers.
  [[nodiscard]] virtual bool spilled(std::uint64_t i) const = 0;
  /// Some set has spilled. Reads then run serially in set order: a staging
  /// pool is not thread-safe, and its charges must land on the timeline in
  /// a deterministic order.
  [[nodiscard]] virtual bool any_spilled() const = 0;
  /// Write set i's members (ascending) into `out`, length(i) values.
  virtual void decode(std::uint64_t i, std::span<graph::VertexId> out) const = 0;
};

/// Host index of a collection's prefix [0, num_sets()): every set's length,
/// and append-only segments, one per extend that saw new sets. A segment
/// holds its sets' members and its own vertex -> set CSR over local set ids,
/// so walking a vertex's buckets segment by segment visits its sets in
/// ascending global id.
class SelectionIndex {
 public:
  struct Segment {
    std::uint64_t first = 0;  ///< global id of local set 0
    /// Local set i's members are flat[starts[i], starts[i + 1]), ascending.
    std::vector<std::uint64_t> starts;
    std::vector<graph::VertexId> flat;
    /// Vertex v's sets are local ids sets[offsets[v], offsets[v + 1]),
    /// ascending.
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> sets;
  };

  explicit SelectionIndex(graph::VertexId num_vertices) : n_(num_vertices) {}

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return lengths_.size(); }
  /// Set i has lengths()[i] members (4 B per set, for the pricers).
  [[nodiscard]] std::span<const std::uint32_t> lengths() const noexcept {
    return lengths_;
  }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

  /// Bring the index to the first `num_sets` sets of `source`. Every spilled
  /// set of the indexed prefix streams up again, in ascending id order and
  /// discarded, so the modeled spill traffic, the staging LRU and the fault
  /// ordinals are those of a full re-read; then sets [this->num_sets(),
  /// num_sets) decode into a new segment (in parallel unless a set has
  /// spilled) and are indexed. The segment is appended only once complete:
  /// a throw leaves the index as it was. A `num_sets` below the indexed
  /// prefix (an OOM truncation after a failover) restarts from set 0.
  /// Counts each newly indexed element in selector.elements_decoded.
  void extend(const SetSource& source, std::uint64_t num_sets,
              support::metrics::MetricsRegistry* metrics);

 private:
  /// Fill `segment`'s vertex -> set CSR from its members.
  void index_segment(Segment& segment) const;
  /// Count the members of local sets [first, last) per vertex into `hist`.
  void count_chunk(const Segment& segment, std::uint64_t first, std::uint64_t last,
                   std::vector<std::uint64_t>& hist) const;
  /// Write local ids [first, last) into segment.sets at `cursor`'s
  /// per-vertex write positions, advancing them.
  static void scatter_chunk(Segment& segment, std::uint64_t first, std::uint64_t last,
                            std::vector<std::uint64_t>& cursor);

  graph::VertexId n_;
  std::vector<std::uint32_t> lengths_;
  std::vector<Segment> segments_;
};

/// The modeled device cost of one greedy selection: the only part of it
/// that differs between topologies. greedy_select reports every set a pick
/// covers, then charges the pick; a filler pick (every set already
/// covered) covers nothing but is still charged.
class PickPricer {
 public:
  virtual ~PickPricer() = default;
  /// Once, before the first pick: the lengths of the sets the picks run
  /// over, in set-id order.
  virtual void start(std::span<const std::uint32_t> lengths) = 0;
  /// The current pick covered `set_id`.
  virtual void cover(std::uint64_t set_id) = 0;
  /// Charge the current pick's kernels (and exchange, if any).
  virtual void charge_pick() = 0;
};

/// §3.5 on one device: per pick, an arg-max reduction over C, then the
/// count-update scan of `strategy`. The pricer holds the F flags (one byte
/// per set) in device memory for its lifetime, so make it before the
/// index is extended and keep it for the whole selection.
[[nodiscard]] std::unique_ptr<PickPricer> make_scan_kernel_pricer(
    gpusim::Device& device, ScanStrategy strategy, graph::VertexId num_vertices,
    std::uint64_t num_sets, support::metrics::MetricsRegistry* metrics);

/// Exact greedy max-coverage over every set of `index`: k picks, each the
/// vertex with the most uncovered sets (smallest id on ties); once every set
/// is covered the remaining picks are the smallest unused ids. Counts are
/// the index's bucket sizes summed over its segments, so they always
/// describe exactly the sets selected over. A pick's sets are covered in
/// ascending id order, and `pricer` charges every pick.
[[nodiscard]] imm::SelectionResult greedy_select(
    const SelectionIndex& index, std::uint32_t k, PickPricer& pricer,
    ArgMaxMode mode = ArgMaxMode::kLazyHeap,
    support::metrics::MetricsRegistry* metrics = nullptr);

/// Single-device selection over a DeviceRrrCollection: extends its own
/// SelectionIndex over the collection and runs greedy_select under the §3.5
/// kernel pricer. The index follows one collection; a call on another
/// collection starts a fresh one.
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
  /// collection grows: each call decodes only the sets committed since the
  /// previous call on the same collection (spilled sets still stream up, as
  /// a full re-read would).
  [[nodiscard]] imm::SelectionResult select(const DeviceRrrCollection& collection,
                                            std::uint32_t k);

  [[nodiscard]] ScanStrategy strategy() const noexcept { return strategy_; }

  /// Wire per-pick kernel/decode counters and the codec.decode,
  /// selector.preprocess and selector.pick wall timers into `registry`
  /// (nullptr detaches). The registry must outlive the selector or the next
  /// attach.
  void attach_metrics(support::metrics::MetricsRegistry* registry) noexcept {
    metrics_ = registry;
  }

 private:
  gpusim::Device* device_;
  ScanStrategy strategy_;
  ArgMaxMode argmax_mode_ = ArgMaxMode::kLazyHeap;
  support::metrics::MetricsRegistry* metrics_ = nullptr;
  SelectionIndex index_{0};
  std::uint64_t indexed_collection_ = 0;  ///< instance_id() index_ follows
};

}  // namespace eim::eim_impl
