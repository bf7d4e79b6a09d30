#include "eim/eim/sampler.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "eim/graph/draw_plan.hpp"
#include "eim/imm/imm.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/retry.hpp"
#include "eim/support/rng.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

using graph::VertexId;
using gpusim::BlockContext;
using support::RandomStream;

namespace {

/// Coalesced warp transactions needed to touch `count` consecutive items.
std::uint64_t warp_chunks(std::uint64_t count, std::uint32_t warp) {
  return support::div_ceil<std::uint64_t>(count, warp);
}

}  // namespace

class EimSampler::StampLease {
 public:
  StampLease(EimSampler& sampler, BlockScratch& scratch)
      : sampler_(sampler), scratch_(scratch) {
    {
      const std::lock_guard lock(sampler.stamps_mutex_);
      if (sampler.free_stamps_ != nullptr) {
        scratch.marks =
            std::exchange(sampler.free_stamps_, sampler.free_stamps_->next_free);
        return;
      }
    }
    // Every array is checked out: one more body runs concurrently than ever
    // before. Zero its n words outside the lock.
    auto fresh = std::make_unique<Stamps>();
    fresh->stamp.assign(sampler.graph_->num_vertices(), 0);
    Stamps* const marks = fresh.get();
    {
      const std::lock_guard lock(sampler.stamps_mutex_);
      sampler.stamp_arrays_.push_back(std::move(fresh));
    }
    scratch.marks = marks;
  }

  ~StampLease() {
    const std::lock_guard lock(sampler_.stamps_mutex_);
    scratch_.marks->next_free = sampler_.free_stamps_;
    sampler_.free_stamps_ = std::exchange(scratch_.marks, nullptr);
  }

  StampLease(const StampLease&) = delete;
  StampLease& operator=(const StampLease&) = delete;

 private:
  EimSampler& sampler_;
  BlockScratch& scratch_;
};

EimSampler::EimSampler(gpusim::Device& device, const graph::Graph& g,
                       graph::DiffusionModel model, const imm::ImmParams& params,
                       const EimOptions& options)
    : device_(&device),
      graph_(&g),
      model_(model),
      params_(params),
      options_(options),
      num_blocks_(options.sampler_blocks != 0 ? options.sampler_blocks
                                              : device.spec().num_sms * 2) {
  // Persistent global-memory pool: per block, a queue of n vertex slots
  // plus the visited bitmap M (n bits). The device charge reflects the
  // kernel's packed layout and holds no host memory. On the host, M is a
  // stamped n-word array that a block body leases from stamp_arrays_ only
  // while it runs (StampLease), so the host pays n words per concurrently
  // running body, not per simulated block — and nothing at construction.
  const std::uint64_t per_block =
      static_cast<std::uint64_t>(g.num_vertices()) * sizeof(VertexId) +
      support::div_ceil<std::uint64_t>(g.num_vertices(), 8);
  pool_charge_ = device.alloc<std::uint8_t>(per_block * num_blocks_);

  if (options.draw_mode == DrawMode::Skip) {
    const graph::DrawPlan* plan = g.draw_plan();
    if (plan != nullptr && plan->model == model) {
      plan_ = plan;
      // The sidecar rides on-device next to the CSC for the sampler's
      // lifetime (read-only; the host copy is shared across shards).
      plan_charge_ = device.alloc<std::uint8_t>(plan->bytes());
    }
  }

  scratch_.resize(num_blocks_);
  support::profiler::WallTimer* refill_timer =
      options.profile != nullptr ? &options.profile->timer("rng.refill") : nullptr;
  for (auto& s : scratch_) {
    s.queue.reserve(64);
    // All blocks share one refill timer; the histogram is lock-free.
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
  EIM_CHECK_MSG(graph_->num_vertices() > 0, "cannot sample an empty graph");
  const std::uint64_t base = collection.num_sets();
  const std::uint64_t target = base + global_indices.size();

  // Pending work: (local slot in the collection, global stream id).
  struct PendingSample {
    std::uint64_t local_slot;
    std::uint64_t global_id;
  };
  std::vector<PendingSample> pending;
  pending.reserve(global_indices.size());
  for (std::uint64_t j = 0; j < global_indices.size(); ++j) {
    pending.push_back(PendingSample{base + j, global_indices[j]});
  }

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
    if (plan_ != nullptr) {
      if (model_ == graph::DiffusionModel::IndependentCascade) {
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
  while (!pending.empty()) {
    EIM_CHECK_MSG(++wave <= max_waves, "sampler failed to converge on capacity");
    support::trace::ScopedSpan wave_span(trace, trace_pid,
                                         support::trace::SpanCategory::Wave,
                                         "wave " + std::to_string(wave),
                                         device_->timeline().total_seconds());

    // Reserve O for every set and R using the observed average set size
    // (first wave: a generous default).
    const std::uint64_t have_sets = collection.num_sets();
    const double avg = have_sets > 0 && collection.total_elements() > 0
                           ? static_cast<double>(collection.total_elements()) /
                                 static_cast<double>(have_sets)
                           : 8.0;
    // Headroom: the running average with slack for every pending sample,
    // plus room for the largest set that failed to fit last wave on every
    // concurrently active block — guarantees forward progress when
    // supercritical cascades produce sets far above the average (e.g.
    // com-Amazon's near-critical reverse BFS) without reserving the
    // worst case for millions of samples at once.
    const auto giant_slots = std::min<std::uint64_t>(pending.size(), num_blocks_ * 4u);
    const auto estimated = collection.total_elements() +
                           (static_cast<std::uint64_t>(avg * 1.5) + 1) *
                               static_cast<std::uint64_t>(pending.size()) +
                           max_failed_len * giant_slots + 4096;
    try {
      collection.reserve(target, estimated);
      // Spill-budget progress guard: if the largest set that failed last
      // wave cannot fit even in the freshly spilled-empty device array, no
      // number of waves will ever commit it — surface that as OOM (which
      // SpillThenDegrade converts to a degrade) instead of spinning.
      if (collection.spill_active() && max_failed_len > 0 &&
          collection.element_capacity() - collection.total_elements() <
              max_failed_len) {
        throw support::DeviceOutOfMemoryError(
            max_failed_len * sizeof(VertexId),
            (collection.element_capacity() - collection.total_elements()) *
                sizeof(VertexId));
      }
    } catch (const support::DeviceOutOfMemoryError&) {
      // Publish the contiguous committed prefix before propagating so
      // OomPolicy::Degrade selects over every set that fully committed
      // (pending is sorted by local slot; its front is the first gap).
      collection.set_num_sets(pending.front().local_slot);
      throw;
    }

    for (auto& s : scratch_) s.failed.clear();

    // Transient launch faults fire before any block body runs, so a retry
    // re-executes the whole wave against untouched scratch/collection state;
    // the deterministic backoff lands on this device's timeline.
    const auto wave_body = [&](gpusim::BlockContext& ctx) {
          if (ctx.block_id() >= pending.size()) return;  // no sample this wave
          BlockScratch& scratch = scratch_[ctx.block_id()];
          const StampLease lease(*this, scratch);
          // Round-robin assignment of samples to blocks (§3.2: "a round
          // robin assignment of RRR set creation between the GPU blocks").
          // Strided slots keep per-block load statistically balanced and —
          // unlike an atomic claim — make the modeled makespan independent
          // of host scheduling, so runs are bit-reproducible.
          for (std::uint64_t slot = ctx.block_id(); slot < pending.size();
               slot += num_blocks_) {
            ctx.charge_atomic_global(1);  // shared `count` bookkeeping

            const PendingSample sample = pending[slot];
            const std::uint32_t regenerated =
                generate(ctx, scratch, sample.global_id);

            // Sort + commit (Fig. 2). Source elimination already happened
            // inside generate(); queue holds the final sorted set.
            if (collection.try_commit(sample.local_slot, scratch.queue)) {
              // Final queue length = the RRR set this sample produced (post
              // source elimination); lock-free, safe from pool threads.
              // Observed only here: a capacity-failed sample re-runs next
              // wave and would otherwise be counted once per attempt.
              if (queue_depth_h != nullptr) queue_depth_h->observe(scratch.queue.size());
              charge_commit(ctx, static_cast<std::uint32_t>(scratch.queue.size()));
              scratch.discarded += regenerated;
            } else {
              scratch.failed.push_back(slot);
              scratch.max_failed_len =
                  std::max<std::uint64_t>(scratch.max_failed_len, scratch.queue.size());
            }
          }
        };
    {
      // One wall entry per wave launch: the whole Monte Carlo BFS sweep for
      // this wave's pending samples, including host-pool dispatch.
      const support::profiler::ScopedWallTimer wave_wall(wave_w);
      support::retry(
          options_.retry,
          [&] { device_->launch_blocks("eim::sample", num_blocks_, wave_body); },
          [&](std::uint32_t /*attempt*/, double backoff,
              const support::DeviceFaultError&) {
            device_->charge_backoff("eim::sample retry", backoff);
            if (fault_retries_c != nullptr) fault_retries_c->add();
            if (backoff_h != nullptr) backoff_h->observe_duration(backoff);
          });
    }

    std::vector<PendingSample> retry;
    for (auto& s : scratch_) {
      for (const std::uint64_t slot : s.failed) retry.push_back(pending[slot]);
      singletons_discarded_ += s.discarded;
      if (regens_c != nullptr) regens_c->add(s.discarded);
      s.discarded = 0;
      if (draws_skipped_c != nullptr) draws_skipped_c->add(s.draws_skipped);
      if (alias_picks_c != nullptr) alias_picks_c->add(s.alias_picks);
      s.draws_skipped = 0;
      s.alias_picks = 0;
      max_failed_len = std::max(max_failed_len, s.max_failed_len);
      s.max_failed_len = 0;
    }
    if (waves_c != nullptr) waves_c->add();
    if (retries_c != nullptr) retries_c->add(retry.size());
    if (committed_c != nullptr) committed_c->add(pending.size() - retry.size());
    wave_span.end(device_->timeline().total_seconds());
    std::sort(retry.begin(), retry.end(),
              [](const PendingSample& a, const PendingSample& b) {
                return a.local_slot < b.local_slot;
              });
    pending = std::move(retry);
  }

  collection.set_num_sets(target);
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
          BlockScratch& scratch = scratch_[ctx.block_id()];
          const StampLease lease(*this, scratch);
          generate(ctx, scratch, global_id);
          out.assign(scratch.queue.begin(), scratch.queue.end());
        });
      },
      [&](std::uint32_t /*attempt*/, double backoff,
          const support::DeviceFaultError&) {
        device_->charge_backoff("eim::resample retry", backoff);
      });
}

std::uint32_t EimSampler::generate(BlockContext& ctx, BlockScratch& scratch,
                                   std::uint64_t sample_index) {
  const VertexId n = graph_->num_vertices();
  std::uint32_t regenerated = 0;

  for (std::uint32_t attempt = 0;; ++attempt) {
    RandomStream rng(params_.rng_seed,
                     support::derive_stream(imm::kSampleStreamTag, sample_index, attempt));
    const VertexId source = rng.next_below(n);
    ctx.charge_alu(2);  // lane 0 picks the source, seeds head/tail (Alg. 2 l.5-10)

    // Fresh epoch == "initialize M" without touching n words every sample.
    Stamps& marks = *scratch.marks;
    if (++marks.epoch == 0) {
      std::fill(marks.stamp.begin(), marks.stamp.end(), 0u);
      marks.epoch = 1;
    }
    scratch.queue.clear();
    scratch.queue.push_back(source);
    marks.stamp[source] = marks.epoch;

    if (model_ == graph::DiffusionModel::IndependentCascade) {
      if (plan_ != nullptr) {
        bfs_ic_skip(ctx, scratch, source, rng);
      } else {
        bfs_ic(ctx, scratch, source, rng);
      }
    } else {
      if (plan_ != nullptr) {
        walk_lt_skip(ctx, scratch, source, rng);
      } else {
        walk_lt(ctx, scratch, source, rng);
      }
    }

    if (options_.eliminate_sources) {
      // Queue slot 0 always holds the source.
      scratch.queue.erase(scratch.queue.begin());
      ctx.charge_alu(1);
      if (scratch.queue.empty() && attempt + 1 < imm::kMaxRegenerationAttempts) {
        ++regenerated;
        continue;  // §3.4: throw the singleton away, draw a fresh sample
      }
    }
    break;
  }

  std::sort(scratch.queue.begin(), scratch.queue.end());
  return regenerated;
}

void EimSampler::bfs_ic(BlockContext& ctx, BlockScratch& scratch, VertexId source,
                        RandomStream& rng) {
  const graph::Graph& g = *graph_;
  const std::uint32_t warp = ctx.warp_size();
  // Hoisted: queue.push_back writes through a uint32 pointer, so keeping
  // stamp/epoch as locals spares a per-edge member reload (hot loop). The
  // lease holds the array for the whole body, so its base is stable.
  std::uint32_t* const stamp = scratch.marks->stamp.data();
  const std::uint32_t epoch = scratch.marks->epoch;

  // Per-level draw buffer: activation draws are generated in bulk
  // (fill_floats) ahead of each edge sweep, so the per-edge work is a flat
  // scan of precomputed draws against weights instead of a Philox call per
  // edge. One draw is consumed per *unvisited* neighbor, in stream order —
  // the exact consumption contract of the serial reference — and
  // finish_sample rewinds the stream to what was actually taken.
  support::FloatDrawBuffer& draws = scratch.draws;
  auto c = draws.begin_sample(rng);
  // In-degree sum of queued-but-unswept vertices — the frontier's exact
  // remaining draw demand. Refills are sized to it, so a cascade that dies
  // young costs no more Philox blocks than the scalar loop would.
  std::size_t pending = g.in().neighbors(source).size();

  // Warp-wide probabilistic BFS (Alg. 2 lines 11-20). The queue IS the
  // visited set; head walks forward, tail grows as lanes activate
  // in-neighbors.
  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    const VertexId u = scratch.queue[head];
    ctx.charge_global(1);  // read Q front

    const auto ins = g.in().neighbors(u);
    const auto ws = g.in_weights(u);
    // Lanes sweep the in-edge list in warp-sized chunks: neighbor ids,
    // weights, and M lookups are each one coalesced transaction per chunk.
    ctx.charge_global(3 * warp_chunks(ins.size(), warp));
    ctx.charge_alu(warp_chunks(ins.size(), warp));  // rng + compare per lane

    c = draws.ensure(c, rng, ins.size(), pending);
    std::size_t t = 0;
    for (std::size_t j = 0; j < ins.size(); ++j) {
      const VertexId v = ins[j];
      const bool visited = stamp[v] == epoch;
      if (visited) continue;
      // Strict < (not <=): a zero-weight edge must never activate, and the
      // serial reference uses the same comparison for bit-parity.
      if (c.p[t++] < ws[j]) {
        stamp[v] = epoch;  // mark BEFORE enqueue (Alg. 2 l.18)
        scratch.queue.push_back(v);
        pending += g.in().neighbors(v).size();
        ctx.charge_global(1);         // M store + Q store (write-combined)
        ctx.charge_atomic_global(1);  // atomicAdd on q_tail (Alg. 2 l.20)
      }
    }
    c.p += t;
    c.avail -= t;
    pending -= ins.size();
  }
  draws.finish_sample(rng, c);
}

void EimSampler::walk_lt(BlockContext& ctx, BlockScratch& scratch, VertexId source,
                         RandomStream& rng) {
  const graph::Graph& g = *graph_;
  const std::uint32_t warp = ctx.warp_size();

  // §3.3: thread 0 draws tau for the dequeued vertex; the warp prefix-scans
  // in-edge weights and the unique lane whose inclusive sum first crosses
  // tau activates its neighbor. At most one vertex joins per step, so the
  // queue is a walk.
  Stamps& marks = *scratch.marks;
  VertexId u = source;
  for (;;) {
    const auto ins = g.in().neighbors(u);
    const auto ws = g.in_weights(u);
    if (ins.empty()) break;

    const float tau = rng.next_float();
    ctx.charge_alu(1);

    VertexId chosen = graph::kInvalidVertex;
    float base = 0.0f;
    for (std::size_t chunk = 0; chunk < ins.size(); chunk += warp) {
      const std::size_t len = std::min<std::size_t>(warp, ins.size() - chunk);
      ctx.charge_global(2);  // neighbors + weights, one transaction each

      // Real inclusive scan over this chunk's weights (metered as the
      // __shfl_up_sync ladder).
      float lane_vals[32];
      for (std::size_t l = 0; l < len; ++l) lane_vals[l] = ws[chunk + l];
      ctx.warp_inclusive_scan(std::span<float>(lane_vals, len));

      bool lane_hit[32];
      for (std::size_t l = 0; l < len; ++l) {
        const float inclusive = base + lane_vals[l];
        const float exclusive = base + (l == 0 ? 0.0f : lane_vals[l - 1]);
        lane_hit[l] = inclusive > tau && exclusive <= tau;
      }
      const std::uint32_t mask = ctx.warp_ballot(std::span<const bool>(lane_hit, len));
      if (options_.lt_activation == LtActivationMethod::AtomicAdd) {
        // Ablation: the shared-sum variant serializes one atomic per lane
        // on the same address (§3.3's rejected design). Identical result,
        // different cost.
        ctx.charge_atomic_shared(len);
      }
      if (mask != 0) {
        chosen = ins[chunk + static_cast<std::size_t>(std::countr_zero(mask))];
        break;
      }
      base += lane_vals[len - 1];
    }

    if (chosen == graph::kInvalidVertex) break;  // tau in the no-one gap
    if (marks.stamp[chosen] == marks.epoch) break;  // walk closed a loop
    marks.stamp[chosen] = marks.epoch;
    scratch.queue.push_back(chosen);
    ctx.charge_global(1);
    ctx.charge_atomic_global(1);
    u = chosen;
  }
}

void EimSampler::bfs_ic_skip(BlockContext& ctx, BlockScratch& scratch,
                             VertexId source, RandomStream& rng) {
  const graph::Graph& g = *graph_;
  const graph::DrawPlan& plan = *plan_;
  const std::uint32_t warp = ctx.warp_size();
  std::uint32_t* const stamp = scratch.marks->stamp.data();
  const std::uint32_t epoch = scratch.marks->epoch;
  const graph::EdgeId* const offsets = g.in().offsets.data();
  const VertexId* const targets = g.in().targets.data();
  const graph::Weight* const weights = g.all_in_weights().data();

  // SoA frontier: the CSC slice and weight class of every queued vertex,
  // captured at enqueue time. The sweep then streams flat arrays — no
  // offset-table reload, no per-vertex plan lookup.
  auto& fbegin = scratch.frontier_begin;
  auto& flen = scratch.frontier_len;
  auto& fkind = scratch.frontier_kind;
  fbegin.clear();
  flen.clear();
  fkind.clear();
  const auto push_meta = [&](VertexId v) {
    const graph::EdgeId b = offsets[v];
    fbegin.push_back(b);
    flen.push_back(static_cast<std::uint32_t>(offsets[v + 1] - b));
    fkind.push_back(plan.ic_kind[v]);
  };
  push_meta(source);

  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    ctx.charge_global(1);  // read Q front + its SoA slice (one line each)

    const auto kind = static_cast<graph::DrawPlan::IcKind>(fkind[head]);
    const std::uint32_t deg = flen[head];
    if (deg == 0 || kind == graph::DrawPlan::IcKind::Zero) {
      // Zero: uniform weight <= 0 — no draw can succeed, skip the slice
      // outright. deg draws avoided, zero consumed.
      scratch.draws_skipped += deg;
      continue;
    }
    const graph::EdgeId begin = fbegin[head];
    const VertexId* const ins = targets + begin;

    switch (kind) {
      case graph::DrawPlan::IcKind::Uniform: {
        // One uniform per failure run: jump straight to the next success.
        // The jump counts positions over ALL in-edges (visited targets
        // included — a success on a visited vertex is a no-op), so the
        // per-edge Bernoulli distribution is preserved exactly.
        const double log1m = plan.ic_log1m[scratch.queue[head]];
        std::uint64_t draws = 1;
        ctx.charge_alu(1);  // log + floor of the skip draw
        std::uint64_t j = support::geometric_skip(rng, log1m);
        while (j < deg) {
          const VertexId v = ins[j];
          ctx.charge_global(1);  // neighbor id gather + M probe
          if (stamp[v] != epoch) {
            stamp[v] = epoch;
            scratch.queue.push_back(v);
            push_meta(v);
            ctx.charge_global(1);         // M store + Q store (write-combined)
            ctx.charge_atomic_global(1);  // atomicAdd on q_tail
          }
          const std::uint64_t s = support::geometric_skip(rng, log1m);
          ++draws;
          ctx.charge_alu(1);
          if (s >= deg - 1 - j) break;  // next success lands past the slice
          j += 1 + s;
        }
        if (deg > draws) scratch.draws_skipped += deg - draws;
        break;
      }
      case graph::DrawPlan::IcKind::Saturated: {
        // Uniform weight with p_eff >= 1: every in-edge activates, no
        // randomness consumed at all.
        ctx.charge_global(2 * warp_chunks(deg, warp));  // ids + M probes
        for (std::uint32_t j = 0; j < deg; ++j) {
          const VertexId v = ins[j];
          if (stamp[v] != epoch) {
            stamp[v] = epoch;
            scratch.queue.push_back(v);
            push_meta(v);
            ctx.charge_global(1);
            ctx.charge_atomic_global(1);
          }
        }
        scratch.draws_skipped += deg;
        break;
      }
      default: {
        // Mixed weights: exact per-edge fallback (same draw-per-unvisited-
        // neighbor shape and the same metered cost as the exact kernel).
        const graph::Weight* const ws = weights + begin;
        ctx.charge_global(3 * warp_chunks(deg, warp));
        ctx.charge_alu(warp_chunks(deg, warp));
        for (std::uint32_t j = 0; j < deg; ++j) {
          const VertexId v = ins[j];
          if (stamp[v] == epoch) continue;
          if (rng.next_float() < ws[j]) {
            stamp[v] = epoch;
            scratch.queue.push_back(v);
            push_meta(v);
            ctx.charge_global(1);
            ctx.charge_atomic_global(1);
          }
        }
        break;
      }
    }
  }
}

void EimSampler::walk_lt_skip(BlockContext& ctx, BlockScratch& scratch,
                              VertexId source, RandomStream& rng) {
  const graph::Graph& g = *graph_;
  const graph::DrawPlan& plan = *plan_;

  // Same walk as walk_lt, but the activated in-neighbor is picked in O(1)
  // from the vertex's Vose alias table: one uniform split into (bucket,
  // coin) replaces the O(in-degree) warp prefix scan.
  Stamps& marks = *scratch.marks;
  VertexId u = source;
  for (;;) {
    const graph::EdgeId begin = g.in().offsets[u];
    const auto deg = static_cast<std::uint32_t>(g.in().offsets[u + 1] - begin);
    if (deg == 0) break;

    const float tau = rng.next_float();
    ctx.charge_alu(1);     // lane 0 draws tau and splits (bucket, coin)
    ctx.charge_global(1);  // alias-table gather (prob + alias, one line)
    const std::uint32_t pick = graph::alias_pick_lt(plan, g, u, tau);
    ++scratch.alias_picks;
    if (pick == graph::kNoAliasPick) break;  // tau in the no-one gap

    const VertexId chosen = g.in().targets[begin + pick];
    ctx.charge_global(1);  // neighbor id gather
    if (marks.stamp[chosen] == marks.epoch) break;  // walk closed a loop
    marks.stamp[chosen] = marks.epoch;
    scratch.queue.push_back(chosen);
    ctx.charge_global(1);
    ctx.charge_atomic_global(1);
    u = chosen;
  }
}

void EimSampler::charge_commit(BlockContext& ctx, std::uint32_t len) const {
  if (len == 0) {
    ctx.charge_atomic_global(1);  // offset claim still happens
    return;
  }
  const std::uint32_t warp = ctx.warp_size();
  const std::uint64_t chunks = warp_chunks(len, warp);

  // Ascending-order insert: in-register bitonic sort of the queue,
  // log^2(len) compare-exchange stages over ceil(len/32) warp fronts.
  const std::uint32_t log_len = support::ceil_log2(std::max<std::uint32_t>(2, len));
  ctx.charge_alu(chunks * log_len * log_len);

  ctx.charge_atomic_global(1);  // offset claim (Alg. 2 line 21)
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
