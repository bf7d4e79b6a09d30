#include "eim/eim/sampler.hpp"

#include <algorithm>

#include "eim/graph/draw_plan.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/retry.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

using graph::VertexId;
using gpusim::BlockContext;

namespace {

/// The fast-draw sidecar the skip policies run on: non-null only when
/// DrawMode::Skip is on AND the graph carries a plan built for this model
/// (assign_weights builds it; hand-assigned weights leave it null and the
/// sampler silently runs the exact policies). Host memory is shared across
/// samplers/shards; each modeled device charges its own resident copy.
const graph::DrawPlan* skip_plan(const graph::Graph& g, graph::DiffusionModel model,
                                 const EimOptions& options) {
  const graph::DrawPlan* plan = g.draw_plan();
  return options.draw_mode == DrawMode::Skip && plan != nullptr && plan->model == model
             ? plan
             : nullptr;
}

}  // namespace

/// eIM's queue sink: the block's slice of the pre-allocated global-memory
/// pool (Alg. 2). Every queue access is a global transaction, every enqueue
/// bumps q_tail atomically, and nothing is allocated in-kernel. Not in the
/// anonymous namespace: the kernels instantiated on it must stay exported
/// for the profiler to name their frames.
struct GlobalPoolQueue {
  LtActivationMethod lt_activation;

  void dequeue(BlockContext& ctx) noexcept { ctx.charge_global(1); }  // read Q front
  void enqueue(BlockContext& ctx, std::size_t /*queue_size*/) noexcept {
    ctx.charge_global(1);         // M store + Q store (write-combined)
    ctx.charge_atomic_global(1);  // atomicAdd on q_tail (Alg. 2 l.20)
  }
  void lt_chunk(BlockContext& ctx, std::size_t lanes) noexcept {
    ctx.charge_warp_scan();  // the __shfl_up_sync ladder
    ctx.charge_warp_ballot();
    if (lt_activation == LtActivationMethod::AtomicAdd) {
      // Ablation: the shared-sum variant serializes one atomic per lane
      // on the same address (§3.3's rejected design). Identical result,
      // different cost.
      ctx.charge_atomic_shared(lanes);
    }
  }
};

EimSampler::EimSampler(gpusim::Device& device, const graph::Graph& g,
                       graph::DiffusionModel model, const imm::ImmParams& params,
                       const EimOptions& options)
    : device_(&device),
      options_(options),
      num_blocks_(options.sampler_blocks != 0 ? options.sampler_blocks
                                              : device.spec().num_sms * 2),
      traversal_{&g, model, skip_plan(g, model, options), params.rng_seed,
                 options.eliminate_sources},
      scratch_(support::ThreadPool::global().size() + 1) {
  // Persistent global-memory pool: per block, a queue of n vertex slots
  // plus the visited bitmap M (n bits). The device charge reflects the
  // kernel's packed layout and holds no host memory; the host's M arrays
  // are one per pool thread, sized on first use.
  const std::uint64_t per_block =
      static_cast<std::uint64_t>(g.num_vertices()) * sizeof(VertexId) +
      support::div_ceil<std::uint64_t>(g.num_vertices(), 8);
  pool_charge_ = device.alloc<std::uint8_t>(per_block * num_blocks_);

  if (traversal_.plan != nullptr) {
    // The sidecar rides on-device next to the CSC for the sampler's
    // lifetime (read-only; the host copy is shared across shards).
    plan_charge_ = device.alloc<std::uint8_t>(traversal_.plan->bytes());
  }

  support::profiler::WallTimer* refill_timer =
      options.profile != nullptr ? &options.profile->timer("rng.refill") : nullptr;
  for (auto& s : scratch_) {
    s.queue.reserve(64);
    // All threads share one refill timer; the histogram is lock-free.
    s.draws.attach_refill_timer(refill_timer);
  }
}

void EimSampler::sample_to(DeviceRrrCollection& collection, std::uint64_t target) {
  if (collection.num_sets() >= target) return;
  std::vector<std::uint64_t> globals;
  globals.reserve(target - collection.num_sets());
  for (std::uint64_t i = collection.num_sets(); i < target; ++i) globals.push_back(i);
  sample_assigned(collection, globals);
}

void EimSampler::sample_assigned(DeviceRrrCollection& collection,
                                 std::span<const std::uint64_t> global_indices) {
  if (global_indices.empty()) return;
  // next_below(0) returns 0, so an empty graph would read stamp[0] of an
  // empty epoch array — reject the request cleanly instead (the pipeline
  // already short-circuits this case to a zero-set result).
  EIM_CHECK_MSG(traversal_.g->num_vertices() > 0, "cannot sample an empty graph");
  const std::uint64_t base = collection.num_sets();
  const std::uint64_t target = base + global_indices.size();

  support::profiler::WallTimer* wave_w =
      options_.profile != nullptr ? &options_.profile->timer("sampler.wave") : nullptr;
  support::metrics::Counter* waves_c = nullptr;
  support::metrics::Counter* committed_c = nullptr;
  support::metrics::Counter* retries_c = nullptr;
  support::metrics::Counter* regens_c = nullptr;
  support::metrics::Counter* fault_retries_c = nullptr;
  support::metrics::Counter* draws_skipped_c = nullptr;
  support::metrics::Counter* alias_picks_c = nullptr;
  support::metrics::Histogram* queue_depth_h = nullptr;
  support::metrics::Histogram* backoff_h = nullptr;
  if (options_.metrics != nullptr) {
    waves_c = &options_.metrics->counter("sampler.waves");
    committed_c = &options_.metrics->counter("sampler.samples_committed");
    retries_c = &options_.metrics->counter("sampler.commit_retries");
    regens_c = &options_.metrics->counter("sampler.singleton_regens");
    fault_retries_c = &options_.metrics->counter("retry.attempts");
    queue_depth_h = &options_.metrics->histogram("sampler.queue_depth");
    backoff_h = &options_.metrics->histogram("retry.backoff_seconds");
    // Fast-draw counters exist only when the skip kernels can actually run,
    // so exact-mode metrics reports stay byte-identical to the baselines.
    if (traversal_.plan != nullptr) {
      if (traversal_.model == graph::DiffusionModel::IndependentCascade) {
        draws_skipped_c = &options_.metrics->counter("sampler.draws_skipped");
      } else {
        alias_picks_c = &options_.metrics->counter("sampler.alias_picks");
      }
    }
  }

  // Wave spans attach to the device's trace track; the device must have
  // been registered by the pipeline for pid_of to resolve.
  support::trace::TraceRecorder* trace = options_.trace;
  std::uint32_t trace_pid = 0;
  if (trace != nullptr) {
    const auto pid = trace->pid_of(device_);
    if (pid.has_value()) {
      trace_pid = *pid;
    } else {
      trace = nullptr;
    }
  }

  int wave = 0;
  std::uint64_t max_failed_len = 0;
  const int max_waves = max_sampler_waves(collection.spill_active());
  while (collection.num_sets() < target) {
    EIM_CHECK_MSG(++wave <= max_waves, "sampler failed to converge on capacity");
    support::trace::ScopedSpan wave_span(trace, trace_pid,
                                         support::trace::SpanCategory::Wave,
                                         "wave " + std::to_string(wave),
                                         device_->timeline().total_seconds());
    // Commits are a slot-order prefix, so the pending slots are the
    // uncommitted suffix.
    const std::uint64_t first = collection.num_sets();
    const auto pending = global_indices.subspan(first - base);

    // Reserve O for every set and R using the average size of the committed
    // sets (before any commit: a generous default).
    const double avg = first > 0 && collection.total_elements() > 0
                           ? static_cast<double>(collection.total_elements()) /
                                 static_cast<double>(first)
                           : 8.0;
    // Headroom: the running average with slack for every pending sample,
    // plus room for the largest set that failed to fit on every
    // concurrently active block — guarantees forward progress when
    // supercritical cascades produce sets far above the average (e.g.
    // com-Amazon's near-critical reverse BFS) without reserving the
    // worst case for millions of samples at once.
    const auto giant_slots = std::min<std::uint64_t>(pending.size(), num_blocks_ * 4u);
    const auto estimated = collection.total_elements() +
                           (static_cast<std::uint64_t>(avg * 1.5) + 1) *
                               static_cast<std::uint64_t>(pending.size()) +
                           max_failed_len * giant_slots + 4096;
    // An OOM propagates with num_sets() already at the committed prefix,
    // which DegradePolicy::Degrade selects over.
    collection.reserve(target, estimated);
    // Spill-budget progress guard: if the largest set that failed to fit
    // cannot fit even in the freshly spilled-empty device array, no number
    // of waves will ever commit it — surface that as OOM (which
    // DegradePolicy::Degrade converts to a degrade) instead of spinning.
    if (collection.spill_active() && max_failed_len > 0 &&
        collection.element_capacity() - collection.total_elements() < max_failed_len) {
      throw support::DeviceOutOfMemoryError(
          max_failed_len * sizeof(VertexId),
          (collection.element_capacity() - collection.total_elements()) *
              sizeof(VertexId));
    }

    const auto generate = [&](BlockContext& ctx, TraversalScratch& scratch,
                              std::uint64_t slot) -> std::uint32_t {
      // Shared `count` bookkeeping; the same atomic returns the wave's
      // overflow bit, so a block sees the overflow at no extra charge.
      ctx.charge_atomic_global(1);
      GlobalPoolQueue sink{options_.lt_activation};
      // Source elimination and the sort happen inside generate(); queue
      // holds the final set. Returns the singleton regenerations.
      return traversal_.generate(ctx, scratch, pending[slot], sink);
    };
    std::uint64_t discarded = 0;  // committed samples' regenerations
    const auto settle = [&](BlockContext& ctx, const WaveSlot& slot, bool admitted) {
      if (!admitted) {
        max_failed_len = std::max<std::uint64_t>(max_failed_len, slot.length);
        return;
      }
      // Observed only on commit: a rejected sample re-runs next wave and
      // would otherwise be counted once per attempt.
      if (queue_depth_h != nullptr) queue_depth_h->observe(slot.length);
      charge_commit(ctx, slot.length);
      discarded += slot.note;
    };
    {
      // One wall entry per wave launch: the whole Monte Carlo BFS sweep for
      // this wave's pending samples, including host-pool dispatch.
      const support::profiler::ScopedWallTimer wave_wall(wave_w);
      // Transient launch faults fire before any slot runs, so a retry
      // re-executes the whole wave against untouched scratch/collection
      // state; the deterministic backoff lands on this device's timeline.
      support::retry(
          options_.retry,
          [&] {
            run_wave(*device_, "eim::sample", num_blocks_, pending.size(), scratch_,
                     collection, generate, settle);
          },
          [&](std::uint32_t /*attempt*/, double backoff,
              const support::DeviceFaultError&) {
            device_->charge_backoff("eim::sample retry", backoff);
            if (fault_retries_c != nullptr) fault_retries_c->add();
            if (backoff_h != nullptr) backoff_h->observe_duration(backoff);
          });
    }

    const std::uint64_t committed = collection.num_sets() - first;
    singletons_discarded_ += discarded;
    if (regens_c != nullptr) regens_c->add(discarded);
    for (auto& s : scratch_) {
      if (draws_skipped_c != nullptr) draws_skipped_c->add(s.draws_skipped);
      if (alias_picks_c != nullptr) alias_picks_c->add(s.alias_picks);
      s.draws_skipped = 0;
      s.alias_picks = 0;
    }
    if (waves_c != nullptr) waves_c->add();
    if (retries_c != nullptr) retries_c->add(pending.size() - committed);
    if (committed_c != nullptr) committed_c->add(committed);
    wave_span.end(device_->timeline().total_seconds());
  }
}

void EimSampler::resample_set(std::uint64_t global_id,
                              std::vector<graph::VertexId>& out) {
  // One single-block launch re-runs the generation path for this global
  // sample id; the draws are a pure function of (rng_seed, global id), so
  // the regenerated set is bit-identical to the one originally committed.
  out.clear();
  support::retry(
      options_.retry,
      [&] {
        device_->launch_blocks("eim::resample", 1, [&](gpusim::BlockContext& ctx) {
          TraversalScratch& scratch =
              scratch_[support::ThreadPool::global().worker_slot()];
          GlobalPoolQueue sink{options_.lt_activation};
          (void)traversal_.generate(ctx, scratch, global_id, sink);
          out.assign(scratch.queue.begin(), scratch.queue.end());
        });
      },
      [&](std::uint32_t /*attempt*/, double backoff,
          const support::DeviceFaultError&) {
        device_->charge_backoff("eim::resample retry", backoff);
      });
}

void EimSampler::charge_commit(BlockContext& ctx, std::uint32_t len) const {
  if (len == 0) {
    ctx.charge_atomic_global(1);  // offset claim still happens
    return;
  }
  const std::uint64_t chunks = ctx.warp_chunks(len);

  // Ascending-order insert: in-register bitonic sort of the queue,
  // log^2(len) compare-exchange stages over ceil(len/32) warp fronts.
  const std::uint32_t log_len = support::ceil_log2(std::max<std::uint32_t>(2, len));
  ctx.charge_alu(chunks * log_len * log_len);

  ctx.charge_atomic_global(1);  // ordered offset claim (Alg. 2 line 21)
  ctx.charge_global(1);         // O[count + 1] store

  // Copy Q -> R (lines 23-27): one coalesced store per chunk — doubled for
  // the packed layout's read-modify-write — plus C atomics and M resets.
  const std::uint64_t store_cost = options_.log_encode ? 2 * chunks : chunks;
  ctx.charge_global(store_cost + chunks /* M resets */);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    ctx.charge_atomic_global(1);  // 32 lanes, distinct counters: one round
  }
  ctx.charge_atomic_global(1);  // atomicAdd(count, 1) (line 28)
}

}  // namespace eim::eim_impl
