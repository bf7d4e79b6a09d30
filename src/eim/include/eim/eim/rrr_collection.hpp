// Device-resident RRR-set collection for eIM.
//
// Mirrors the paper's layout: a single flat array R holding every set's
// vertices (log-encoded when enabled), the offset array O, and the
// frequency counts C that Alg. 2 (lines 21-28) updates atomically as sets
// are committed. C is modeled by its device charge and the sampler's
// commit atomics alone: selection counts from the merged host mirror.
//
// Commits are decided in slot order (docs/OBSERVABILITY.md "Slot-order
// commit contract"). A sampling wave generates its pending slots' sets,
// then admit() takes the longest run of them, from the first on, whose
// total length fits R's capacity; each admitted set's offset is the
// exclusive prefix sum of the lengths before it — the ordered single-pass
// form of Alg. 2's atomic offset claim (line 21). The first set that does
// not fit closes admission until the next reserve(), so every later slot
// re-runs next wave and the committed sets are always slots [0, num_sets()).
// A sampling wave stops at that set (run_wave in traversal.hpp), so only
// the slots its blocks already held are generated and rejected.
// The decision reads only set lengths, never the host schedule, so modeled
// time repeats bit-for-bit. Admitted slices do not overlap, so publish()
// may run for many of them at once; the thread-safe packed store of §3.1
// handles the boundary words neighbouring slices share.
//
// Capacity grows only *between* kernel waves (the sampler driver reserves
// ahead), which is how a fixed-capacity GPU array is managed without
// in-kernel malloc.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "eim/encoding/bit_packed_array.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/types.hpp"

namespace eim::support::metrics {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace eim::support::metrics

namespace eim::support::profiler {
class WallProfile;
class WallTimer;
}  // namespace eim::support::profiler

namespace eim::eim_impl {

class TieredRrrStore;

class DeviceRrrCollection {
 public:
  DeviceRrrCollection(gpusim::Device& device, graph::VertexId num_vertices,
                      bool log_encode);
  ~DeviceRrrCollection();

  DeviceRrrCollection(const DeviceRrrCollection&) = delete;
  DeviceRrrCollection& operator=(const DeviceRrrCollection&) = delete;

  /// Make room for `num_sets` sets totalling up to `num_elements` vertices.
  /// Existing contents are preserved; device memory is re-charged (alloc
  /// new + copy + free old, exactly what a cudaMalloc/cudaMemcpy resize
  /// costs). Reopens admission.
  void reserve(std::uint64_t num_sets, std::uint64_t num_elements);

  /// Admit, in slot order, the sets of the next `lengths.size()` slots
  /// (slot num_sets() first): the longest prefix whose total fits R's
  /// capacity. Writes each admitted set's O entry (offset = exclusive scan
  /// of the lengths) and advances num_sets() and the element cursor; the
  /// first `max_rejects` rejected slots count in rrr.commit_rejects (a
  /// sampling wave passes its block count: its blocks stop at the first
  /// rejection, so no more rejected slots ever started). A rejection closes
  /// admission until the next reserve(). Returns the number admitted; the
  /// caller then publishes each of them. Serial.
  [[nodiscard]] std::uint64_t admit(
      std::span<const std::uint32_t> lengths,
      std::uint64_t max_rejects = std::numeric_limits<std::uint64_t>::max());

  /// Write admitted set `set_index`'s members (ascending, as many as
  /// admitted) into its slice of R. Distinct sets may publish concurrently.
  void publish(std::uint64_t set_index, std::span<const graph::VertexId> sorted_set);

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  /// Distinct for every collection this process constructs (never 0), so a
  /// reader that follows one collection can tell it from a later one at the
  /// same address.
  [[nodiscard]] std::uint64_t instance_id() const noexcept { return instance_id_; }
  /// Number of committed sets; they are slots [0, num_sets()).
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }

  [[nodiscard]] std::uint64_t total_elements() const noexcept { return element_cursor_; }

  [[nodiscard]] std::uint32_t set_length(std::uint64_t i) const noexcept {
    return lengths_[i];
  }
  /// Decode member j of set i. Device-resident sets only — a spilled set
  /// must stream through decode_set (the store has no per-element access).
  [[nodiscard]] graph::VertexId element(std::uint64_t i, std::uint32_t j) const noexcept {
    const std::uint64_t pos = starts_[i] + j - device_base_;
    return log_encode_ ? static_cast<graph::VertexId>(packed_.get(pos)) : raw_[pos];
  }

  /// Bulk-decode all of set i into `out` (must hold set_length(i) values).
  /// Uses the word-streaming decoder under log encoding instead of one
  /// container walk per element — the hot path for selection, checkpoint
  /// export, and shard redistribution. A spilled set streams back up
  /// through the attached store's staging pool instead (and may then throw
  /// IoError if its disk tier fails past the retry budget).
  void decode_set(std::uint64_t i, std::span<graph::VertexId> out) const;

  /// Device bytes of R + O + C as stored.
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept;
  /// Device bytes of the same data uncompressed (u32 R, u64 O, u32 C).
  [[nodiscard]] std::uint64_t raw_equivalent_bytes() const noexcept;

  [[nodiscard]] bool log_encoded() const noexcept { return log_encode_; }

  /// Wire commit/regrow counters into `registry` (nullptr detaches). The
  /// registry must outlive the collection or the next attach call.
  void attach_metrics(support::metrics::MetricsRegistry* registry);

  /// Wire the commit-publish wall timer into `profile` (nullptr detaches).
  /// Only publishes of at least kTimedPublishLen elements are timed — a
  /// short set's publish is cheaper than the two clock reads it would cost,
  /// and the sampling profiler attributes that tail statistically.
  void attach_profile(support::profiler::WallProfile* profile);
  static constexpr std::size_t kTimedPublishLen = 64;

  /// Attach the tiered spill hierarchy (docs/RESILIENCE.md "Memory-pressure
  /// tiers"). `device_budget_bytes` caps the packed R element array (the
  /// per-set offset/length metadata stays device-resident — it indexes the
  /// spilled sets too); when a reservation would exceed it — or a genuine device
  /// allocation fails — every committed set is evicted into `store` and the
  /// device array restarts empty at the current cursor, so θ refinement
  /// continues instead of degrading. 0 = no budget (spill only on real
  /// OOM). Must be attached before any set is committed; `store` must
  /// outlive all decode/commit traffic.
  void attach_spill(TieredRrrStore* store, std::uint64_t device_budget_bytes);

  [[nodiscard]] bool spill_active() const noexcept { return spill_ != nullptr; }
  /// True once any set has been evicted (selector preprocessing switches to
  /// the serial streaming path to keep staging-pool traffic deterministic).
  [[nodiscard]] bool has_spilled() const noexcept { return spilled_sets_ > 0; }
  /// Evicted sets are always the committed prefix [0, spilled sets).
  [[nodiscard]] bool is_spilled(std::uint64_t i) const noexcept {
    return i < spilled_sets_;
  }
  [[nodiscard]] std::uint64_t element_capacity() const noexcept {
    return element_capacity_;
  }

  /// Evict every committed, not-yet-spilled set downward and restart the
  /// device array empty at the current cursor. Serial contexts only (the
  /// sampler's between-wave reserve, tests).
  void spill_committed();

 private:
  void charge_device(std::uint64_t bytes);
  void refund_device(std::uint64_t bytes) noexcept;
  void grow_r(std::uint64_t num_elements);
  void allocate_r(std::uint64_t num_elements);
  [[nodiscard]] std::uint64_t current_r_bytes() const noexcept;
  /// Device bytes of `elements` R slots as stored (packed or raw).
  [[nodiscard]] std::uint64_t r_bytes_for(std::uint64_t elements) const noexcept;
  [[nodiscard]] std::uint64_t elements_for_bytes(std::uint64_t bytes) const noexcept;
  [[nodiscard]] std::uint64_t budget_device_elements() const noexcept;

  gpusim::Device* device_;
  std::uint64_t instance_id_;
  graph::VertexId n_;
  bool log_encode_;
  std::uint32_t bits_per_vertex_;

  // R: exactly one of these is active.
  encoding::BitPackedArray packed_;
  std::vector<graph::VertexId> raw_;
  std::uint64_t element_capacity_ = 0;

  // O, split into start+length (the length indexes spilled sets too).
  std::vector<std::uint64_t> starts_;
  std::vector<std::uint32_t> lengths_;

  std::uint64_t element_cursor_ = 0;
  std::uint64_t num_sets_ = 0;
  bool admission_closed_ = false;  ///< a set was rejected since the last reserve
  std::uint64_t charged_bytes_ = 0;  ///< what we currently hold in the pool

  // Spill hierarchy (null/0 when detached). The device arrays hold the
  // global element range [device_base_, element_capacity_); sets below
  // device_base_ live in the tiered store.
  TieredRrrStore* spill_ = nullptr;
  std::uint64_t device_budget_bytes_ = 0;
  std::uint64_t device_base_ = 0;
  std::uint64_t spilled_sets_ = 0;  ///< sets [0, spilled_sets_) live in the store

  // Optional instrumentation (see attach_metrics); null when detached.
  support::metrics::Counter* commit_rejects_ = nullptr;
  support::metrics::Counter* regrow_r_ = nullptr;
  support::metrics::Counter* regrow_o_ = nullptr;
  support::metrics::Histogram* set_size_hist_ = nullptr;
  support::profiler::WallTimer* commit_publish_ = nullptr;
};

}  // namespace eim::eim_impl
