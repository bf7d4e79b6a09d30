// Tiered RRR spill store: compressed host overflow + disk-backed cold tier.
//
// The two lower rungs of the memory-pressure hierarchy behind
// DeviceRrrCollection (docs/RESILIENCE.md "Memory-pressure tiers"):
//
//   T0  device-resident bit-packed sets (the collection itself)
//   T1  compressed host-resident blocks — batches of decoded sets framed by
//       encoding::rrr_block_encode (delta + varint, per-block CRC-32C),
//       admitted under an optional host byte budget with LRU eviction
//       downward
//   T2  disk-backed cold blocks, written through the hardened
//       support::atomic_write_file (fsync + atomic rename) so a crash or a
//       full disk never publishes a torn block
//
// Every movement is charged to the owning device's modeled timeline — PCIe
// bandwidth/latency for device<->host ("spill.evict"/"spill.fetch"), the
// cost model's disk tier for host<->disk ("spill.write"/"spill.read") — so
// the spill tax shows up in modeled `seconds` exactly like kernel time.
// Disk I/O honors the device FaultPlan's spill ordinals: transient
// write/read faults and mid-file short writes retry under
// support::retry_on<IoError> with deterministic modeled backoff; a block
// whose CRC fails on read is quarantined and rebuilt through the resample
// hook (sample regeneration is deterministic per global sample id), so even
// torn disk blocks cannot change the final seeds.
//
// Not thread-safe: spill and fetch run only in the pipeline's serial
// contexts (reserve between waves, selector preprocessing, checkpoint
// export), matching the DeviceTimeline's single-writer rule.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "eim/graph/types.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/support/retry.hpp"

namespace eim::support::metrics {
class MetricsRegistry;
class Counter;
class Histogram;
}  // namespace eim::support::metrics

namespace eim::support::trace {
class TraceRecorder;
}  // namespace eim::support::trace

namespace eim::eim_impl {

struct TieredStoreOptions {
  /// Cap on compressed bytes held in host memory (T1); blocks past it are
  /// LRU-evicted to disk. 0 = unbounded (disk is reached only via injected
  /// host-allocation OOM).
  std::uint64_t host_budget_bytes = 0;
  /// Directory for T2 block files; empty = a fresh per-store directory under
  /// the system temp path, removed when the store is destroyed.
  std::string dir;
  /// Sets batched into one compressed block.
  std::uint32_t sets_per_block = 1024;
  /// Decoded blocks kept hot in the staging pool (the "small pinned staging
  /// pool" sets stream back up through).
  std::uint32_t staging_blocks = 4;
  /// Transient disk-I/O retry budget (backoff is modeled, deterministic).
  support::RetryPolicy retry;
};

class TieredRrrStore {
 public:
  TieredRrrStore(gpusim::Device& device, TieredStoreOptions options);
  ~TieredRrrStore();
  TieredRrrStore(const TieredRrrStore&) = delete;
  TieredRrrStore& operator=(const TieredRrrStore&) = delete;

  /// Wire the spill.* counters and the spill.{encode,decode,disk_write,
  /// disk_read} wall timers into `registry`; without one, no clock is read.
  void attach_metrics(support::metrics::MetricsRegistry* registry);
  void attach_trace(support::trace::TraceRecorder* trace, std::uint32_t pid);

  /// Deterministic block-repair source: regenerate the decoded members of
  /// one set by its slot. Without a hook, a CRC failure is fatal
  /// (IoError, exit 3) instead of recoverable.
  void set_resample_hook(
      std::function<void(std::uint64_t, std::vector<graph::VertexId>&)> hook);

  /// Evict the collection's next `lengths.size()` slots downward: the store
  /// holds slots [0, spilled_sets()) and each call appends the run that
  /// follows. `values` concatenates the sets in slot order (each
  /// ascending); `raw_device_bytes` is the packed device footprint being
  /// freed, charged as one PCIe D2H transfer.
  void spill(std::span<const std::uint32_t> lengths,
             std::span<const graph::VertexId> values, std::uint64_t raw_device_bytes);

  /// Stream one spilled slot (< spilled_sets()) back up through the staging
  /// pool. `out.size()` must equal the length passed to spill(). Throws
  /// IoError when disk I/O fails past the retry budget or a corrupt block
  /// cannot be resampled.
  void fetch(std::uint64_t slot, std::span<graph::VertexId> out);

  [[nodiscard]] std::uint64_t spilled_sets() const noexcept { return spilled_sets_; }
  /// Compressed footprint across T1 + T2.
  [[nodiscard]] std::uint64_t compressed_bytes() const noexcept {
    return host_bytes_ + disk_bytes_;
  }
  [[nodiscard]] std::uint64_t disk_bytes() const noexcept { return disk_bytes_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  struct Block {
    std::uint64_t first = 0;              ///< slot of the block's first set
    std::vector<std::uint32_t> lengths;
    std::vector<std::uint64_t> offsets;   ///< prefix sums over lengths (size+1)
    std::vector<std::uint8_t> encoded;    ///< empty while resident on disk
    std::uint64_t encoded_bytes = 0;      ///< frame size (valid in either tier)
    std::uint64_t raw_bytes = 0;          ///< packed device footprint it freed
    bool on_disk = false;
    std::uint64_t lru = 0;
  };
  struct Staged {
    std::size_t block = 0;
    std::vector<graph::VertexId> values;
    std::uint64_t lru = 0;
  };

  void admit_block(Block&& block);
  void enforce_host_budget();
  void write_to_disk(Block& block);
  [[nodiscard]] std::vector<std::uint8_t> read_from_disk(const Block& block,
                                                         std::size_t block_index);
  Staged& stage_block(std::size_t block_index);
  [[nodiscard]] std::vector<graph::VertexId> quarantine_and_resample(
      std::size_t block_index);
  [[nodiscard]] std::string block_path(std::size_t block_index) const;
  void charge_pcie(const char* label, std::uint64_t bytes);
  void charge_disk(const char* label, std::uint64_t bytes);
  void trace_instant(const char* name, std::string detail);

  gpusim::Device* device_;
  TieredStoreOptions options_;
  std::string dir_;
  bool own_dir_ = false;

  std::vector<Block> blocks_;  ///< ascending, contiguous slot runs
  std::vector<Staged> staging_;
  std::uint64_t lru_clock_ = 0;

  std::uint64_t spilled_sets_ = 0;
  std::uint64_t host_bytes_ = 0;
  std::uint64_t disk_bytes_ = 0;
  std::uint64_t host_alloc_ordinal_ = 0;
  std::uint64_t write_ordinal_ = 0;
  std::uint64_t read_ordinal_ = 0;

  std::function<void(std::uint64_t, std::vector<graph::VertexId>&)> resample_hook_;

  support::metrics::Counter* evictions_ = nullptr;
  support::metrics::Counter* evicted_sets_ = nullptr;
  support::metrics::Counter* evicted_bytes_raw_ = nullptr;
  support::metrics::Counter* evicted_bytes_compressed_ = nullptr;
  support::metrics::Counter* fetches_ = nullptr;
  support::metrics::Counter* staging_hits_ = nullptr;
  support::metrics::Counter* disk_writes_ = nullptr;
  support::metrics::Counter* disk_reads_ = nullptr;
  support::metrics::Counter* io_retries_ = nullptr;
  support::metrics::Counter* host_oom_ = nullptr;
  support::metrics::Counter* corrupt_blocks_ = nullptr;
  support::metrics::Counter* resampled_sets_ = nullptr;
  support::metrics::Histogram* block_bytes_ = nullptr;

  support::metrics::Histogram* encode_wall_ = nullptr;
  support::metrics::Histogram* decode_wall_ = nullptr;
  support::metrics::Histogram* disk_write_wall_ = nullptr;
  support::metrics::Histogram* disk_read_wall_ = nullptr;

  support::trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_pid_ = 0;
};

}  // namespace eim::eim_impl
