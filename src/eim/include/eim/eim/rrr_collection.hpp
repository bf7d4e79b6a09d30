// Device-resident RRR-set collection for eIM.
//
// Mirrors the paper's layout: a single flat array R holding every set's
// vertices (log-encoded when enabled), the offset array O, and the
// frequency counts C that Alg. 2 (lines 21-28) updates atomically as sets
// are committed. C is modeled by its device charge and the sampler's
// commit atomics alone: selection counts from the merged host mirror.
// Warps claim a slice of R with a CAS on the shared element
// cursor — a claim either fits entirely or is never made, so the cursor is
// monotone and never exceeds capacity — and publish their vertices
// independently; the thread-safe packed store of §3.1 makes that safe under
// log encoding. (The earlier fetch_add/fetch_sub "rollback" protocol let a
// failed claim transiently push the cursor past capacity and then rewind it
// below a concurrent success's slice, so a later commit could overlay — and
// under log encoding OR-corrupt — a committed set. See
// docs/OBSERVABILITY.md for the invariants and tests/stress for the
// regression hammer.)
//
// Capacity grows only *between* kernel waves (the sampler driver reserves
// ahead); a warp that cannot fit its set reports failure and the driver
// re-issues that sample in the next wave, which is how a fixed-capacity
// GPU array is managed without in-kernel malloc.
#pragma once

#include <atomic>
#include <cstdint>
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
  /// costs).
  void reserve(std::uint64_t num_sets, std::uint64_t num_elements);

  /// Thread-safe commit path used from sampler blocks. Claims a slice of R
  /// for set `set_index` with a CAS-retry loop — the claim succeeds only if
  /// the whole set fits, so the element cursor never overshoots capacity
  /// and never moves backwards. Returns false when capacity is insufficient
  /// (the caller re-issues the sample after the driver grows the arrays).
  /// `sorted_set` must be ascending. Updates O and the element cursor.
  [[nodiscard]] bool try_commit(std::uint64_t set_index,
                                std::span<const graph::VertexId> sorted_set);

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  /// Number of committed sets = high-water set index + 1 (driver-managed).
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }
  void set_num_sets(std::uint64_t sets) noexcept { num_sets_ = sets; }

  [[nodiscard]] std::uint64_t total_elements() const noexcept {
    return element_cursor_.load(std::memory_order_relaxed);
  }

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
  [[nodiscard]] bool has_spilled() const noexcept { return spilled_any_; }
  [[nodiscard]] bool is_spilled(std::uint64_t i) const noexcept {
    return spilled_any_ && spilled_[i] != 0;
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
  [[nodiscard]] std::uint64_t elements_for_bytes(std::uint64_t bytes) const noexcept;
  [[nodiscard]] std::uint64_t budget_device_elements() const noexcept;

  gpusim::Device* device_;
  graph::VertexId n_;
  bool log_encode_;
  std::uint32_t bits_per_vertex_;

  // R: exactly one of these is active.
  encoding::BitPackedArray packed_;
  std::vector<graph::VertexId> raw_;
  std::uint64_t element_capacity_ = 0;

  // O, split into start+length so out-of-order commits need no ordering.
  std::vector<std::uint64_t> starts_;
  std::vector<std::uint32_t> lengths_;

  std::atomic<std::uint64_t> element_cursor_{0};
  std::uint64_t num_sets_ = 0;
  std::uint64_t charged_bytes_ = 0;  ///< what we currently hold in the pool

  // Spill hierarchy (null/0 when detached). The device arrays hold the
  // global element range [device_base_, element_capacity_); sets below
  // device_base_ live in the tiered store.
  TieredRrrStore* spill_ = nullptr;
  std::uint64_t device_budget_bytes_ = 0;
  std::uint64_t device_base_ = 0;
  bool spilled_any_ = false;
  std::vector<std::uint8_t> spilled_;    ///< per O slot: evicted to the store
  std::vector<std::uint8_t> committed_;  ///< per O slot: published (spill only)

  // Optional instrumentation (see attach_metrics); null when detached.
  support::metrics::Counter* commit_rejects_ = nullptr;
  support::metrics::Counter* claim_cas_retries_ = nullptr;
  support::metrics::Counter* regrow_r_ = nullptr;
  support::metrics::Counter* regrow_o_ = nullptr;
  support::metrics::Histogram* set_size_hist_ = nullptr;
  support::profiler::WallTimer* commit_publish_ = nullptr;
};

}  // namespace eim::eim_impl
