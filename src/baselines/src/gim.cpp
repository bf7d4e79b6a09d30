#include "eim/baselines/gim.hpp"

#include <algorithm>
#include <bit>

#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/eim/traversal.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::baselines {

using eim_impl::DeviceRrrCollection;
using eim_impl::EimResult;
using graph::VertexId;
using gpusim::BlockContext;

namespace {

/// gIM sampling engine: the shared traversal kernel over a shared-memory
/// queue with dynamic global spill.
class GimSampler {
 public:
  GimSampler(gpusim::Device& device, const graph::Graph& g,
             graph::DiffusionModel model, const imm::ImmParams& params,
             const GimConfig& config)
      : device_(&device),
        config_(config),
        num_blocks_(device.spec().num_sms * 2),
        traversal_{&g, model, /*plan=*/nullptr, params.rng_seed,
                   /*eliminate_sources=*/false},
        scratch_(support::ThreadPool::global().size() + 1),
        temp_capacity_(num_blocks_, 0),
        waves_(config.metrics != nullptr ? &config.metrics->counter("sampler.waves")
                                         : nullptr) {
    // Each block keeps its visited bitmap M in global memory (the queue
    // itself lives in shared memory until it spills).
    bitmap_pool_ = gpusim::DeviceBuffer<std::uint8_t>(
        device.memory(),
        support::div_ceil<std::uint64_t>(g.num_vertices(), 8) * num_blocks_);
  }

  ~GimSampler() {
    // Fragmentation from in-kernel mallocs and the padded slot array are
    // only reclaimed when the context is torn down.
    device_->memory().deallocate(fragmentation_bytes_);
    device_->memory().deallocate(padded_bytes_);
  }

  void sample_to(DeviceRrrCollection& collection, std::uint64_t target) {
    int wave = 0;
    std::uint64_t max_failed_len = 0;
    while (collection.num_sets() < target) {
      EIM_CHECK_MSG(++wave <= 64, "gIM sampler failed to converge on capacity");
      // Commits are a slot-order prefix: the pending samples are the
      // uncommitted suffix, and a sample's id is its slot.
      const std::uint64_t first = collection.num_sets();
      const std::uint64_t pending = target - first;
      // The committed sets' average size (before any commit: a default).
      const double avg = first > 0 && collection.total_elements() > 0
                             ? static_cast<double>(collection.total_elements()) /
                                   static_cast<double>(first)
                             : 8.0;
      // Doubling growth: gIM reserves aggressively and uncompressed.
      const auto giant_slots = std::min<std::uint64_t>(pending, num_blocks_ * 4u);
      const auto estimated = collection.total_elements() +
                             (static_cast<std::uint64_t>(avg * 2.0) + 1) * pending +
                             max_failed_len * giant_slots + 4096;
      collection.reserve(target, estimated);

      // gIM's fixed-width slot array: theta slots of padded width. The slot
      // width only grows (a kernel cannot shrink a live allocation).
      slot_width_ = std::max(
          slot_width_, static_cast<std::uint64_t>(avg * config_.slot_padding_factor) + 1);
      const std::uint64_t padded_target = target * slot_width_ * sizeof(VertexId);
      if (padded_target > padded_bytes_) {
        device_->memory().allocate(padded_target - padded_bytes_);  // may OOM
        padded_bytes_ = padded_target;
        device_->charge_allocation_event("gIM padded slots");
      }

      const auto generate = [&](BlockContext& ctx, eim_impl::TraversalScratch& scratch,
                                std::uint64_t slot) -> std::uint32_t {
        ctx.charge_atomic_global(1);  // `count`, which also carries the overflow bit
        SharedQueue sink{config_.shared_queue_entries};
        (void)traversal_.generate(ctx, scratch, first + slot, sink);
        return sink.spill_size;
      };
      // The in-kernel mallocs are priced in slot order, so each one's heap
      // pressure comes from its ordinal, not from the host schedule.
      const auto settle = [&](BlockContext& ctx, const eim_impl::WaveSlot& slot,
                              bool admitted) {
        if (slot.note != 0) {
          charge_malloc(ctx, std::uint64_t{slot.note} * sizeof(VertexId) * 2);
        }
        if (admitted) {
          charge_commit(ctx, slot.length);
        } else {
          max_failed_len = std::max<std::uint64_t>(max_failed_len, slot.length);
        }
      };
      eim_impl::run_wave(*device_, "gim::sample", num_blocks_, pending, scratch_,
                         collection, generate, settle);
      if (waves_ != nullptr) waves_->add();
    }
  }

  [[nodiscard]] std::uint64_t malloc_count() const noexcept {
    return malloc_count_;
  }

 private:
  /// gIM's queue sink for one sample: shared memory while the queue fits,
  /// global after the spill. The spill mallocs a global buffer — priced
  /// later, in slot order — and copies the shared contents out.
  struct SharedQueue {
    std::uint64_t shared_queue_entries;
    std::uint32_t spill_size = 0;  ///< queue size when it escaped shared memory

    void dequeue(BlockContext& ctx) const noexcept {
      spill_size != 0 ? ctx.charge_global(1) : ctx.charge_shared(1);
    }
    void enqueue(BlockContext& ctx, std::size_t queue_size) noexcept {
      if (spill_size == 0 && queue_size > shared_queue_entries) {
        spill_size = static_cast<std::uint32_t>(queue_size);
        ctx.charge_global(ctx.warp_chunks(queue_size));  // evacuate
      }
      if (spill_size != 0) {
        ctx.charge_global(1);
        ctx.charge_atomic_global(1);
      } else {
        ctx.charge_shared(1);
        ctx.charge_atomic_shared(1);
      }
    }
    /// gIM's LT activation uses the serialized shared-sum design.
    void lt_chunk(BlockContext& ctx, std::size_t lanes) noexcept {
      ctx.charge_atomic_shared(lanes);
    }
  };

  /// Meter one in-kernel malloc of `bytes`: latency on the block scaled by
  /// heap pressure, plus part of the pow2-rounding and the header staying
  /// claimed until teardown (in-kernel heap fragmentation).
  void charge_malloc(BlockContext& ctx, std::uint64_t bytes) {
    charge_heap_latency(ctx);
    const std::uint64_t rounded = std::bit_ceil(std::max<std::uint64_t>(bytes, 1));
    const std::uint64_t waste = (rounded - bytes) / 4 + config_.malloc_header_bytes;
    device_->memory().allocate(waste);  // throws on exhaustion -> gIM's OOM
    fragmentation_bytes_ += waste;
  }

  /// The latency-and-bookkeeping part of a device malloc: base cost scaled
  /// by how crowded the heap already is (free-list search + global heap
  /// lock), plus the long-run fragmentation trickle.
  void charge_heap_latency(BlockContext& ctx) {
    const std::uint64_t count = malloc_count_++;
    const std::uint64_t base = device_->spec().costs.device_malloc;
    ctx.charge_device_malloc();
    ctx.add_cycles(base * count / config_.heap_pressure_scale);
    if (config_.frag_bytes_per_malloc > 0) {
      device_->memory().allocate(config_.frag_bytes_per_malloc);
      fragmentation_bytes_ += config_.frag_bytes_per_malloc;
    }
  }

  /// Commit: write the queue into the block's temporary global RRR buffer,
  /// then copy it into the final collection (double traffic, §2.3). The
  /// temp buffer, one per block, is dynamically (re)allocated whenever a
  /// set outgrows it.
  void charge_commit(BlockContext& ctx, std::uint32_t len) {
    if (len == 0) {
      ctx.charge_atomic_global(1);
      return;
    }
    // Every set round-trips through a freshly allocated temporary global
    // buffer (§2.3: "written from the queue to a temporary RRR set in
    // global memory") — the repeated malloc/free whose overhead grows with
    // heap pressure. Capacity growth additionally leaves fragmentation.
    std::uint64_t& temp_capacity = temp_capacity_[ctx.block_id()];
    if (len > temp_capacity) {
      temp_capacity = std::bit_ceil<std::uint64_t>(len) * 2;
      charge_malloc(ctx, temp_capacity * sizeof(VertexId));
    } else {
      charge_heap_latency(ctx);
    }
    const std::uint64_t chunks = ctx.warp_chunks(len);
    const std::uint32_t log_len = support::ceil_log2(std::max<std::uint32_t>(2, len));
    ctx.charge_alu(chunks * log_len * log_len);  // ascending-order insert
    ctx.charge_global(2 * chunks);               // write temp, read temp
    ctx.charge_global(chunks);                   // write final R
    ctx.charge_atomic_global(1);                 // offset claim
    for (std::uint64_t c = 0; c < chunks; ++c) ctx.charge_atomic_global(1);  // C
    ctx.charge_atomic_global(1);                 // count
  }

  gpusim::Device* device_;
  GimConfig config_;
  std::uint32_t num_blocks_;
  eim_impl::Traversal traversal_;
  std::vector<eim_impl::WaveScratch> scratch_;  ///< one per host pool thread
  std::vector<std::uint64_t> temp_capacity_;    ///< per block: temp RRR buffer slots
  std::uint64_t malloc_count_ = 0;              ///< in-kernel mallocs, in slot order
  std::uint64_t fragmentation_bytes_ = 0;
  std::uint64_t slot_width_ = 0;
  std::uint64_t padded_bytes_ = 0;
  support::metrics::Counter* waves_;
  gpusim::DeviceBuffer<std::uint8_t> bitmap_pool_;
};

}  // namespace

EimResult run_gim(gpusim::Device& device, const graph::Graph& g,
                  graph::DiffusionModel model, const imm::ImmParams& params,
                  const GimConfig& config) {
  device.timeline().reset();
  device.memory().reset_peak();

  imm::ImmParams effective = params;
  effective.eliminate_sources = false;  // gIM has no source elimination

  EimResult result;
  result.network_raw_bytes = g.csc_bytes();
  result.network_bytes = result.network_raw_bytes;  // uncompressed CSC
  auto network_charge = device.alloc<std::uint8_t>(result.network_bytes);
  device.transfer_to_device("network CSC", result.network_bytes);

  DeviceRrrCollection collection(device, g.num_vertices(), /*log_encode=*/false);
  collection.attach_metrics(config.metrics);
  GimSampler sampler(device, g, model, effective, config);
  eim_impl::GpuSeedSelector selector(device, eim_impl::ScanStrategy::WarpPerSet);

  const imm::FrameworkOutcome outcome = imm::run_imm_framework(
      g.num_vertices(), effective,
      [&](std::uint64_t target) { sampler.sample_to(collection, target); },
      [&] { return selector.select(collection, effective.k); });

  device.transfer_to_host("seed set",
                          outcome.final_selection.seeds.size() * sizeof(VertexId));

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = collection.num_sets();
  result.total_elements = collection.total_elements();
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction;

  result.device_seconds = device.timeline().total_seconds();
  result.kernel_seconds = device.timeline().kernel_seconds();
  result.transfer_seconds = device.timeline().transfer_seconds();
  result.peak_device_bytes = device.memory().peak_bytes();
  result.rrr_bytes = collection.stored_bytes();
  result.rrr_raw_bytes = collection.raw_equivalent_bytes();
  result.device_mallocs = sampler.malloc_count();
  return result;
}

}  // namespace eim::baselines
