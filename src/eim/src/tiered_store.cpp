#include "eim/eim/tiered_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

#include "eim/encoding/rrr_codec.hpp"
#include "eim/support/atomic_write.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

namespace {

std::string make_unique_spill_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
#if defined(_WIN32)
  const long pid = static_cast<long>(_getpid());
#else
  const long pid = static_cast<long>(getpid());
#endif
  base /= "eim-spill-" + std::to_string(pid) + "-" + std::to_string(n);
  return base.string();
}

}  // namespace

TieredRrrStore::TieredRrrStore(gpusim::Device& device, TieredStoreOptions options)
    : device_(&device), options_(std::move(options)) {
  EIM_CHECK_MSG(options_.sets_per_block > 0, "spill store needs sets_per_block > 0");
  EIM_CHECK_MSG(options_.staging_blocks > 0, "spill store needs staging_blocks > 0");
  if (options_.dir.empty()) {
    dir_ = make_unique_spill_dir();
    own_dir_ = true;
  } else {
    dir_ = options_.dir;
  }
}

TieredRrrStore::~TieredRrrStore() {
  std::error_code ec;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].on_disk) std::filesystem::remove(block_path(i), ec);
  }
  if (own_dir_) std::filesystem::remove_all(dir_, ec);
}

void TieredRrrStore::attach_metrics(support::metrics::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  evictions_ = &registry->counter("spill.evictions");
  evicted_sets_ = &registry->counter("spill.evicted_sets");
  evicted_bytes_raw_ = &registry->counter("spill.evicted_bytes_raw");
  evicted_bytes_compressed_ = &registry->counter("spill.evicted_bytes_compressed");
  fetches_ = &registry->counter("spill.fetches");
  staging_hits_ = &registry->counter("spill.staging_hits");
  disk_writes_ = &registry->counter("spill.disk_writes");
  disk_reads_ = &registry->counter("spill.disk_reads");
  io_retries_ = &registry->counter("spill.io_retries");
  host_oom_ = &registry->counter("spill.host_oom");
  corrupt_blocks_ = &registry->counter("spill.corrupt_blocks");
  resampled_sets_ = &registry->counter("spill.resampled_sets");
  block_bytes_ = &registry->histogram("spill.block_bytes");
  encode_wall_ = &registry->wall_timer("spill.encode");
  decode_wall_ = &registry->wall_timer("spill.decode");
  disk_write_wall_ = &registry->wall_timer("spill.disk_write");
  disk_read_wall_ = &registry->wall_timer("spill.disk_read");
}

void TieredRrrStore::attach_trace(support::trace::TraceRecorder* trace,
                                  std::uint32_t pid) {
  trace_ = trace;
  trace_pid_ = pid;
}

void TieredRrrStore::set_resample_hook(
    std::function<void(std::uint64_t, std::vector<graph::VertexId>&)> hook) {
  resample_hook_ = std::move(hook);
}

std::string TieredRrrStore::block_path(std::size_t block_index) const {
  return (std::filesystem::path(dir_) /
          ("block-" + std::to_string(block_index) + ".spill"))
      .string();
}

void TieredRrrStore::charge_pcie(const char* label, std::uint64_t bytes) {
  const gpusim::CostModel& costs = device_->spec().costs;
  const double seconds = costs.pcie_latency_us * 1e-6 +
                         static_cast<double>(bytes) /
                             (costs.pcie_gbytes_per_sec * 1e9);
  device_->timeline().add(gpusim::SegmentKind::Transfer, label, seconds);
}

void TieredRrrStore::charge_disk(const char* label, std::uint64_t bytes) {
  const gpusim::CostModel& costs = device_->spec().costs;
  const double seconds = costs.disk_latency_us * 1e-6 +
                         static_cast<double>(bytes) /
                             (costs.disk_gbytes_per_sec * 1e9);
  device_->timeline().add(gpusim::SegmentKind::Transfer, label, seconds);
}

void TieredRrrStore::trace_instant(const char* name, std::string detail) {
  if (trace_ == nullptr) return;
  trace_->instant(trace_pid_, name, std::move(detail),
                  device_->timeline().total_seconds());
}

void TieredRrrStore::spill(std::span<const std::uint32_t> lengths,
                           std::span<const graph::VertexId> values,
                           std::uint64_t raw_device_bytes) {
  if (lengths.empty()) return;

  // One PCIe D2H transfer covers the whole eviction batch: the packed device
  // array streams out before the host-side re-encode.
  charge_pcie("spill.evict", raw_device_bytes);

  std::uint64_t num_blocks = 0;
  std::uint64_t compressed = 0;
  std::size_t set_at = 0;
  std::size_t value_at = 0;
  while (set_at < lengths.size()) {
    const std::size_t take =
        std::min<std::size_t>(options_.sets_per_block, lengths.size() - set_at);
    Block block;
    block.first = spilled_sets_ + set_at;
    block.lengths.assign(lengths.begin() + static_cast<std::ptrdiff_t>(set_at),
                         lengths.begin() + static_cast<std::ptrdiff_t>(set_at + take));
    block.offsets.resize(take + 1, 0);
    for (std::size_t j = 0; j < take; ++j) {
      block.offsets[j + 1] = block.offsets[j] + block.lengths[j];
    }
    const std::uint64_t block_values = block.offsets.back();
    EIM_CHECK_MSG(value_at + block_values <= values.size(),
                  "spill batch: values shorter than lengths");
    {
      const support::metrics::ScopedWall encode_scope(encode_wall_);
      block.encoded = encoding::rrr_block_encode(
          block.lengths, values.subspan(value_at, block_values));
    }
    block.encoded_bytes = block.encoded.size();
    // Prorate the freed device footprint by member count so a later fetch
    // charges the PCIe cost of just this block's share.
    block.raw_bytes =
        raw_device_bytes * block_values / std::max<std::uint64_t>(values.size(), 1);
    compressed += block.encoded_bytes;
    if (block_bytes_ != nullptr) block_bytes_->observe(block.encoded_bytes);
    admit_block(std::move(block));
    set_at += take;
    value_at += block_values;
    ++num_blocks;
  }
  spilled_sets_ += lengths.size();
  if (evictions_ != nullptr) {
    evictions_->add(num_blocks);
    evicted_sets_->add(lengths.size());
    evicted_bytes_raw_->add(raw_device_bytes);
    evicted_bytes_compressed_->add(compressed);
  }
  trace_instant("spill.evict", "sets=" + std::to_string(lengths.size()) +
                                   " blocks=" + std::to_string(num_blocks) +
                                   " compressed=" + std::to_string(compressed));
}

void TieredRrrStore::admit_block(Block&& block) {
  block.lru = ++lru_clock_;
  blocks_.push_back(std::move(block));
  Block& admitted = blocks_.back();

  // T1 admission models a host allocation: the fault plan can refuse it,
  // bouncing the block straight to the disk tier.
  const std::uint64_t ordinal = host_alloc_ordinal_++;
  if (gpusim::FaultPlan::hits(device_->fault_plan().host_alloc_oom_ordinals,
                              ordinal)) {
    if (host_oom_ != nullptr) host_oom_->add();
    write_to_disk(admitted);
    return;
  }
  host_bytes_ += admitted.encoded_bytes;
  enforce_host_budget();
}

void TieredRrrStore::enforce_host_budget() {
  if (options_.host_budget_bytes == 0) return;
  while (host_bytes_ > options_.host_budget_bytes) {
    // LRU over host-resident blocks; oldest goes to disk.
    std::size_t victim = blocks_.size();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      if (!blocks_[i].on_disk && blocks_[i].lru < oldest) {
        oldest = blocks_[i].lru;
        victim = i;
      }
    }
    if (victim == blocks_.size()) return;  // nothing left to evict
    host_bytes_ -= blocks_[victim].encoded_bytes;
    write_to_disk(blocks_[victim]);
  }
}

void TieredRrrStore::write_to_disk(Block& block) {
  const std::size_t block_index = static_cast<std::size_t>(&block - blocks_.data());
  const std::string path = block_path(block_index);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string_view view(reinterpret_cast<const char*>(block.encoded.data()),
                              block.encoded.size());
  const support::metrics::ScopedWall write_scope(disk_write_wall_);
  support::retry_on<support::IoError>(
      options_.retry,
      [&] {
        const std::uint64_t ordinal = write_ordinal_++;
        const gpusim::FaultPlan& plan = device_->fault_plan();
        if (gpusim::FaultPlan::hits(plan.spill_write_fault_ordinals, ordinal)) {
          throw support::IoError("injected spill write fault (ordinal " +
                                 std::to_string(ordinal) + ")");
        }
        if (gpusim::FaultPlan::hits(plan.spill_short_write_ordinals, ordinal)) {
          // Model ENOSPC mid-file through the real atomic-write machinery:
          // the temp file is created, half-written, then discarded — proving
          // no partial artifact is ever visible at the destination.
          support::AtomicWriteFaults faults;
          faults.short_write_after =
              static_cast<std::int64_t>(block.encoded.size() / 2);
          support::set_atomic_write_faults(faults);
          try {
            support::atomic_write_file(path, view);
          } catch (...) {
            support::set_atomic_write_faults({});
            throw;
          }
          support::set_atomic_write_faults({});
        }
        support::atomic_write_file(path, view);
      },
      [&](std::uint32_t, double backoff, const support::IoError&) {
        if (io_retries_ != nullptr) io_retries_->add();
        device_->charge_backoff("spill.write retry", backoff);
      });
  charge_disk("spill.write", block.encoded_bytes);
  if (disk_writes_ != nullptr) disk_writes_->add();
  block.on_disk = true;
  disk_bytes_ += block.encoded_bytes;
  block.encoded.clear();
  block.encoded.shrink_to_fit();
}

std::vector<std::uint8_t> TieredRrrStore::read_from_disk(const Block& block,
                                                         std::size_t block_index) {
  const std::string path = block_path(block_index);
  const support::metrics::ScopedWall read_scope(disk_read_wall_);
  return support::retry_on<support::IoError>(
      options_.retry,
      [&]() -> std::vector<std::uint8_t> {
        const std::uint64_t ordinal = read_ordinal_++;
        const gpusim::FaultPlan& plan = device_->fault_plan();
        if (gpusim::FaultPlan::hits(plan.spill_read_fault_ordinals, ordinal)) {
          throw support::IoError("injected spill read fault (ordinal " +
                                 std::to_string(ordinal) + ")");
        }
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          throw support::IoError("spill read: cannot open '" + path + "'");
        }
        std::vector<std::uint8_t> bytes(block.encoded_bytes);
        in.read(reinterpret_cast<char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
          throw support::IoError("spill read: short read from '" + path + "'");
        }
        if (gpusim::FaultPlan::hits(plan.spill_corrupt_ordinals, ordinal) &&
            !bytes.empty()) {
          // Torn-block corruption: flip one payload byte. Not an exception —
          // the CRC check downstream must be the detector.
          bytes.back() ^= 0x40u;
        }
        charge_disk("spill.read", block.encoded_bytes);
        if (disk_reads_ != nullptr) disk_reads_->add();
        return bytes;
      },
      [&](std::uint32_t, double backoff, const support::IoError&) {
        if (io_retries_ != nullptr) io_retries_->add();
        device_->charge_backoff("spill.read retry", backoff);
      });
}

std::vector<graph::VertexId> TieredRrrStore::quarantine_and_resample(
    std::size_t block_index) {
  Block& block = blocks_[block_index];
  if (corrupt_blocks_ != nullptr) corrupt_blocks_->add();
  trace_instant("spill.corrupt",
                "block=" + std::to_string(block_index) +
                    " sets=" + std::to_string(block.lengths.size()));

  // Regeneration is deterministic per global sample id, so the rebuilt
  // members are bit-identical to what the torn block held.
  std::vector<graph::VertexId> values;
  values.reserve(block.offsets.back());
  std::vector<graph::VertexId> one;
  for (std::size_t j = 0; j < block.lengths.size(); ++j) {
    one.clear();
    resample_hook_(block.first + j, one);
    EIM_CHECK_MSG(one.size() == block.lengths[j],
                  "spill resample: regenerated set length diverged");
    values.insert(values.end(), one.begin(), one.end());
  }
  if (resampled_sets_ != nullptr) resampled_sets_->add(block.lengths.size());

  // Re-admit the repaired block to T1 and drop the stale disk file; the host
  // budget may push it straight back down (through a fresh, intact write).
  if (block.on_disk) {
    std::error_code ec;
    std::filesystem::remove(block_path(block_index), ec);
    disk_bytes_ -= block.encoded_bytes;
    block.on_disk = false;
  } else {
    host_bytes_ -= block.encoded_bytes;
  }
  {
    const support::metrics::ScopedWall encode_scope(encode_wall_);
    block.encoded = encoding::rrr_block_encode(block.lengths, values);
  }
  block.encoded_bytes = block.encoded.size();
  host_bytes_ += block.encoded_bytes;
  block.lru = ++lru_clock_;
  enforce_host_budget();
  return values;
}

TieredRrrStore::Staged& TieredRrrStore::stage_block(std::size_t block_index) {
  Block& block = blocks_[block_index];
  std::vector<graph::VertexId> values;
  bool resampled = false;
  {
    std::vector<std::uint8_t> from_disk;
    std::span<const std::uint8_t> frame;
    if (block.on_disk) {
      from_disk = read_from_disk(block, block_index);
      frame = from_disk;
    } else {
      frame = block.encoded;
    }
    try {
      const support::metrics::ScopedWall decode_scope(decode_wall_);
      encoding::DecodedRrrBlock decoded = encoding::rrr_block_decode(frame);
      values = std::move(decoded.values);
    } catch (const support::IoError&) {
      if (!resample_hook_) throw;
      values = quarantine_and_resample(block_index);
      resampled = true;
    }
  }
  if (!resampled) block.lru = ++lru_clock_;

  // Stream back up through the pinned staging pool: one PCIe H2D transfer
  // for the block's share of the original device footprint.
  charge_pcie("spill.fetch", block.raw_bytes);
  trace_instant("spill.fetch", "block=" + std::to_string(block_index) +
                                   " sets=" + std::to_string(block.lengths.size()));

  if (staging_.size() < options_.staging_blocks) {
    staging_.push_back({});
  } else {
    // Reuse the LRU staging slot.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < staging_.size(); ++i) {
      if (staging_[i].lru < staging_[victim].lru) victim = i;
    }
    std::swap(staging_[victim], staging_.back());
  }
  Staged& slot = staging_.back();
  slot.block = block_index;
  slot.values = std::move(values);
  slot.lru = ++lru_clock_;
  return slot;
}

void TieredRrrStore::fetch(std::uint64_t slot, std::span<graph::VertexId> out) {
  EIM_CHECK_MSG(slot < spilled_sets_, "spill fetch: set was never spilled");
  // Blocks hold ascending, contiguous slot runs: the slot lives in the last
  // block that starts at or before it.
  const auto holder = std::upper_bound(
      blocks_.begin(), blocks_.end(), slot,
      [](std::uint64_t s, const Block& b) { return s < b.first; });
  const auto block_index = static_cast<std::size_t>(holder - blocks_.begin()) - 1;
  const Block& block = blocks_[block_index];
  const std::uint64_t pos = slot - block.first;

  Staged* staged = nullptr;
  for (Staged& s : staging_) {
    if (s.block == block_index) {
      staged = &s;
      break;
    }
  }
  if (staged != nullptr) {
    staged->lru = ++lru_clock_;
    if (staging_hits_ != nullptr) staging_hits_->add();
  } else {
    staged = &stage_block(block_index);
  }
  if (fetches_ != nullptr) fetches_->add();

  const std::uint64_t begin = block.offsets[pos];
  const std::uint32_t len = block.lengths[pos];
  EIM_CHECK_MSG(out.size() == len, "spill fetch: caller span length mismatch");
  std::copy_n(staged->values.begin() + static_cast<std::ptrdiff_t>(begin), len,
              out.begin());
}

}  // namespace eim::eim_impl
