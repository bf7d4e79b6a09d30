// The device traversal behind every GPU sampling engine (paper §3.2-§3.4,
// Algorithm 2): one queue-as-set reverse BFS for IC and one reverse walk for
// LT, run by one warp per block per RRR sample. What differs between draw
// modes and engines is a parameter, not a copy:
//
//  * IC draw policy (which in-edges fire): ExactDraws, or SkipDraws.
//  * LT pick policy (which in-neighbor the walk takes): ScanPick, or
//    AliasPick.
//  * Queue sink: what the engine pays per dequeue, per enqueue and per LT
//    scan chunk — the only per-engine part. eIM's is its global-memory pool
//    (sampler.cpp), gIM's a shared-memory queue with a malloc'd spill
//    (gim.cpp). A sink has dequeue(ctx), enqueue(ctx, size after the push)
//    and lt_chunk(ctx, lanes).
//
// Both engines also share the host execution of a sampling wave
// (run_wave): slots generate in slot order, in bounded parallel runs on
// per-thread scratch, and each run's commits are admitted in slot order, so
// the modeled charges never depend on the host schedule.
//
// Two host hot spots of the exact-draw path have a second, faster body that
// computes the same thing (traversal.cpp):
//
//  * ExactDraws' edge scan. The scalar body tests one in-edge at a time.
//    The AVX-512 body tests 16: a masked load of the ids, a gather of M, an
//    expand-load of one draw per unvisited lane and a strict < against the
//    weights; it stops at the first firing lane and takes the draws of the
//    unvisited lanes up to it. The body is chosen once per process, like
//    RandomStream's fill kernel: AVX-512 where the host has avx512f (not
//    under ThreadSanitizer, which does not instrument the vector loads),
//    else scalar. Only rows of at least kWideScanRow in-edges take it:
//    below that the masks, the gather and the call cost more than they
//    save, and most rows of a sparse graph are short.
//  * Sorting the finished set (sort_set): an LSD radix sort over
//    bit_width(n - 1) bits from kRadixSortMin members up. A set's members
//    are random ids, so std::sort mispredicts most comparisons.
//
// diffusion::RrrSampler stays a separate, serial implementation on purpose:
// it is the independent reference the parity suites hold this kernel to.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "eim/eim/rrr_collection.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/draw_plan.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/imm.hpp"
#include "eim/support/rng.hpp"
#include "eim/support/thread_pool.hpp"

namespace eim::eim_impl {

/// One host thread's scratch for the traversal. The visited bitmap M is an
/// epoch-stamped n-word array — v is in the sample being generated iff
/// stamp[v] == epoch, so starting a sample is one increment instead of
/// clearing n bits — sized on the thread's first sample.
struct TraversalScratch {
  std::vector<graph::VertexId> queue;  ///< the block's queue; becomes the RRR set
  std::vector<graph::VertexId> sorted;  ///< sort_set's buffer, as long as the longest set
  std::vector<std::uint32_t> stamp;    ///< M
  std::uint32_t epoch = 0;
  support::FloatDrawBuffer draws;      ///< bulk activation draws (ExactDraws)
  std::uint64_t draws_skipped = 0;     ///< Bernoulli draws avoided (SkipDraws)
  std::uint64_t alias_picks = 0;       ///< O(1) LT picks taken (AliasPick)
};

/// Rows with at least this many in-edges take ExactDraws' 16-lane scan.
inline constexpr std::size_t kWideScanRow = 32;

/// Sets with at least this many members are radix-sorted by sort_set.
inline constexpr std::size_t kRadixSortMin = 32;

/// Sort `set` (distinct ids below `num_vertices`) ascending: std::sort below
/// kRadixSortMin members, else an LSD radix sort over bit_width(n - 1) bits
/// in at most four passes of at most 8 bits, through `buffer`, which grows
/// to the set's size. Out of line so profiles name it.
[[gnu::noinline]] void sort_set(std::vector<graph::VertexId>& set,
                                std::vector<graph::VertexId>& buffer,
                                graph::VertexId num_vertices);

/// IC draw policy: one activation draw per *unvisited* in-neighbor, in
/// stream order — the exact consumption contract of the serial reference.
/// Draws are generated in bulk (fill_floats) ahead of each edge sweep, so
/// the per-edge work is a flat scan of precomputed draws against weights
/// instead of a Philox call per edge; the destructor rewinds the stream to
/// what was actually taken.
class ExactDraws {
 public:
  /// Whether this process scans wide rows with scan_avx512 (set once, at
  /// start-up, from the host's CPU features).
  static const bool wide_scan;

  /// One scan of a row's in-edges (ids `ins`, weights `ws`, `end` of them)
  /// from edge j: the index of the first edge whose target is unvisited
  /// (stamp != epoch) and whose draw is strictly below its weight, or `end`
  /// if none fires. Unvisited targets take draws[t], draws[t + 1], ... in
  /// edge order, and t advances past every draw taken, the hit's included.
  /// A visited target takes no draw. Both bodies return the same index and
  /// take the same draws.
  static std::size_t scan_scalar(const graph::VertexId* ins, const float* ws,
                                 std::size_t j, std::size_t end,
                                 const std::uint32_t* stamp, std::uint32_t epoch,
                                 const float* draws, std::size_t& t) noexcept {
    for (; j < end; ++j) {
      if (stamp[ins[j]] == epoch) continue;
      // Strict < (not <=): a zero-weight edge must never activate, and the
      // serial reference uses the same comparison for bit-parity.
      if (draws[t++] < ws[j]) return j;
    }
    return end;
  }
  /// The 16-lane body (traversal.cpp). Callable only where wide_scan holds
  /// and every id is below 2^31 (the gather's signed offsets).
  [[gnu::noinline]] static std::size_t scan_avx512(const graph::VertexId* ins,
                                                   const float* ws, std::size_t j,
                                                   std::size_t end,
                                                   const std::uint32_t* stamp,
                                                   std::uint32_t epoch,
                                                   const float* draws,
                                                   std::size_t& t) noexcept;

  ExactDraws(const graph::Graph& g, support::FloatDrawBuffer& draws,
             support::RandomStream& rng, graph::VertexId source)
      : g_(g),
        draws_(draws),
        rng_(rng),
        cursor_(draws.begin_sample(rng)),
        pending_(g.in().neighbors(source).size()) {}
  ~ExactDraws() { draws_.finish_sample(rng_, cursor_); }
  ExactDraws(const ExactDraws&) = delete;
  ExactDraws& operator=(const ExactDraws&) = delete;

  /// Sweep u's in-edges, calling fire(v) for every unvisited v that fires.
  template <class Fire>
  void sweep(gpusim::BlockContext& ctx, graph::VertexId u, const std::uint32_t* stamp,
             std::uint32_t epoch, Fire&& fire) {
    const auto ins = g_.in().neighbors(u);
    const auto ws = g_.in_weights(u);
    // Lanes sweep the in-edge list in warp-sized chunks: neighbor ids,
    // weights, and M lookups are each one coalesced transaction per chunk.
    ctx.charge_global(3 * ctx.warp_chunks(ins.size()));
    ctx.charge_alu(ctx.warp_chunks(ins.size()));  // rng + compare per lane

    auto c = draws_.ensure(cursor_, rng_, ins.size(), pending_);
    // Scan to the next firing edge, fire it, scan on from the edge after:
    // a fire marks its target visited, so the next scan sees it as the
    // scalar loop would (a repeated id takes no second draw).
    const std::size_t end = ins.size();
    const auto hit = [&](std::size_t j) {
      pending_ += g_.in().neighbors(ins[j]).size();
      fire(ins[j]);
    };
    std::size_t t = 0;
    if (wide_scan && end >= kWideScanRow && g_.num_vertices() <= 0x8000'0000u) {
      for (std::size_t j = 0;
           (j = scan_avx512(ins.data(), ws.data(), j, end, stamp, epoch, c.p, t)) < end;
           ++j) {
        hit(j);
      }
    } else {
      for (std::size_t j = 0;
           (j = scan_scalar(ins.data(), ws.data(), j, end, stamp, epoch, c.p, t)) < end;
           ++j) {
        hit(j);
      }
    }
    c.p += t;
    c.avail -= t;
    cursor_ = c;
    pending_ -= ins.size();
  }

 private:
  const graph::Graph& g_;
  support::FloatDrawBuffer& draws_;
  support::RandomStream& rng_;
  support::FloatDrawBuffer::Cursor cursor_;
  // In-degree sum of queued-but-unswept vertices — the frontier's exact
  // remaining draw demand. Refills are sized to it, so a cascade that dies
  // young costs no more Philox blocks than the scalar loop would.
  std::size_t pending_;
};

/// IC draw policy for DrawMode::Skip (docs/PERFORMANCE.md "Draw
/// efficiency"): the DrawPlan row kind of u decides how its in-edges are
/// drawn. It consumes the sample's stream differently from ExactDraws —
/// still a pure function of (rng_seed, global id), so resume, spill and
/// multi-GPU determinism hold within the mode.
struct SkipDraws {
  const graph::Graph& g;
  const graph::DrawPlan& plan;
  support::RandomStream& rng;
  support::FloatDrawBuffer& buffer;  ///< for the Mixed rows' exact draws
  std::uint64_t& draws_skipped;

  template <class Fire>
  void sweep(gpusim::BlockContext& ctx, graph::VertexId u, const std::uint32_t* stamp,
             std::uint32_t epoch, Fire&& fire) {
    const graph::EdgeId begin = g.in().offsets[u];
    const auto deg = static_cast<std::uint32_t>(g.in().offsets[u + 1] - begin);
    const graph::VertexId* const ins = g.in().targets.data() + begin;
    switch (deg == 0 ? graph::DrawPlan::IcKind::Zero : plan.kind(u)) {
      case graph::DrawPlan::IcKind::Zero:
        // Uniform weight <= 0: no draw can succeed, skip the slice outright.
        // deg draws avoided, zero consumed.
        draws_skipped += deg;
        break;
      case graph::DrawPlan::IcKind::Uniform: {
        // One uniform per failure run: jump straight to the next success.
        // The jump counts positions over ALL in-edges (visited targets
        // included — a success on a visited vertex is a no-op), so the
        // per-edge Bernoulli distribution is preserved exactly.
        const double log1m = plan.ic_log1m[u];
        std::uint64_t draws = 1;
        ctx.charge_alu(1);  // log + floor of the skip draw
        std::uint64_t j = support::geometric_skip(rng, log1m);
        while (j < deg) {
          ctx.charge_global(1);  // neighbor id gather + M probe
          if (stamp[ins[j]] != epoch) fire(ins[j]);
          const std::uint64_t s = support::geometric_skip(rng, log1m);
          ++draws;
          ctx.charge_alu(1);
          if (s >= deg - 1 - j) break;  // next success lands past the slice
          j += 1 + s;
        }
        if (deg > draws) draws_skipped += deg - draws;
        break;
      }
      case graph::DrawPlan::IcKind::Saturated:
        // Uniform weight with p_eff >= 1: every in-edge activates, no
        // randomness consumed at all.
        ctx.charge_global(2 * ctx.warp_chunks(deg));  // ids + M probes
        for (std::uint32_t j = 0; j < deg; ++j) {
          if (stamp[ins[j]] != epoch) fire(ins[j]);
        }
        draws_skipped += deg;
        break;
      default: {
        // Mixed weights: the exact policy for this row alone. Its bulk
        // draws are the next_float() sequence and it rewinds to what was
        // taken, so the stream advances one scalar draw per unvisited neighbor.
        ExactDraws(g, buffer, rng, u).sweep(ctx, u, stamp, epoch, fire);
        break;
      }
    }
  }
};

/// LT pick policy (§3.3): the warp prefix-scans the in-edge weights chunk
/// by chunk and the unique lane whose inclusive sum first crosses tau
/// activates its neighbor. Lane 0 of each chunk is seeded with the running
/// base, so every lane's sum rounds exactly like the serial reference's
/// left-to-right sum, at any in-degree.
struct ScanPick {
  const graph::Graph& g;
  support::RandomStream& rng;

  /// The in-neighbor that tau activates at u (which has in-edges), or
  /// kInvalidVertex when tau falls in the no-one gap.
  template <class Sink>
  graph::VertexId pick(gpusim::BlockContext& ctx, graph::VertexId u, float tau,
                       Sink& sink) {
    const auto ins = g.in().neighbors(u);
    const auto ws = g.in_weights(u);
    const std::uint32_t warp = ctx.warp_size();
    float inclusive = 0.0f;
    for (std::size_t chunk = 0; chunk < ins.size(); chunk += warp) {
      const std::size_t lanes = std::min<std::size_t>(warp, ins.size() - chunk);
      ctx.charge_global(2);  // neighbors + weights, one transaction each
      sink.lt_chunk(ctx, lanes);
      // The first lane past tau is the ballot's lowest set bit
      // (inclusive > tau && exclusive <= tau).
      for (std::size_t l = 0; l < lanes; ++l) {
        inclusive += ws[chunk + l];
        if (tau < inclusive) return ins[chunk + l];
      }
    }
    return graph::kInvalidVertex;
  }
};

/// LT pick policy for DrawMode::Skip: the activated in-neighbor is picked
/// in O(1) from the vertex's Vose alias table — one uniform split into
/// (bucket, coin) replaces the O(in-degree) warp prefix scan.
struct AliasPick {
  const graph::Graph& g;
  const graph::DrawPlan& plan;
  support::RandomStream& rng;
  std::uint64_t& alias_picks;

  template <class Sink>
  graph::VertexId pick(gpusim::BlockContext& ctx, graph::VertexId u, float tau,
                       Sink& /*sink*/) {
    ctx.charge_global(1);  // alias-table gather (prob + alias, one line)
    const std::uint32_t local = graph::alias_pick_lt(plan, g, u, tau);
    ++alias_picks;
    if (local == graph::kNoAliasPick) return graph::kInvalidVertex;
    ctx.charge_global(1);  // neighbor id gather
    return g.in().targets[g.in().offsets[u] + local];
  }
};

/// Warp-wide probabilistic reverse BFS (Alg. 2 lines 11-20). The queue IS
/// the visited set: head walks forward, tail grows as lanes activate
/// in-neighbors. The kernels and generate() stay out of line so profile
/// frames name them (tools/prof_report's sampler bucket) instead of
/// dissolving into the engine's unnamed launch lambda.
template <class Draws, class Sink>
[[gnu::noinline]] void bfs_ic(gpusim::BlockContext& ctx, TraversalScratch& scratch,
                              Draws&& draws, Sink& sink) {
  // Hoisted: queue.push_back writes through a uint32 pointer, so keeping
  // stamp/epoch as locals spares a per-edge member reload (hot loop).
  std::uint32_t* const stamp = scratch.stamp.data();
  const std::uint32_t epoch = scratch.epoch;
  std::vector<graph::VertexId>& queue = scratch.queue;
  const auto fire = [&](graph::VertexId v) {
    stamp[v] = epoch;  // mark BEFORE enqueue (Alg. 2 l.18)
    queue.push_back(v);
    sink.enqueue(ctx, queue.size());
  };
  for (std::size_t head = 0; head < queue.size(); ++head) {
    sink.dequeue(ctx);
    draws.sweep(ctx, queue[head], stamp, epoch, fire);
  }
}

/// Reverse LT walk: at most one vertex joins per step, so the queue is a
/// path. It ends at a vertex without in-edges, in the no-one gap, or when
/// it closes a loop. Each step draws tau from pick.rng; the pick policy
/// turns it into the activated in-neighbor of u in pick.g.
template <class Pick, class Sink>
[[gnu::noinline]] void walk_lt(gpusim::BlockContext& ctx, TraversalScratch& scratch,
                               Pick&& pick, Sink& sink) {
  for (graph::VertexId u = scratch.queue.front(); pick.g.in_degree(u) != 0;) {
    const float tau = pick.rng.next_float();
    ctx.charge_alu(1);  // lane 0 draws tau (AliasPick: and splits bucket, coin)
    const graph::VertexId chosen = pick.pick(ctx, u, tau, sink);
    if (chosen == graph::kInvalidVertex) break;  // tau in the no-one gap
    if (scratch.stamp[chosen] == scratch.epoch) break;  // walk closed a loop
    scratch.stamp[chosen] = scratch.epoch;
    scratch.queue.push_back(chosen);
    sink.enqueue(ctx, scratch.queue.size());
    u = chosen;
  }
}

/// One sampler's traversal: the per-sample prologue and epilogue around the
/// model's kernel. A non-null `plan` (built for `model`) selects the skip
/// policies; null runs the exact ones.
struct Traversal {
  const graph::Graph* g;
  graph::DiffusionModel model;
  const graph::DrawPlan* plan;
  std::uint64_t rng_seed;
  bool eliminate_sources;

  /// Generate the RRR set of global sample `sample_index` into
  /// scratch.queue (sorted, post source elimination) from that sample's own
  /// stream, whatever block runs it. Returns the singleton regenerations.
  template <class Sink>
  [[gnu::noinline]] std::uint32_t generate(gpusim::BlockContext& ctx,
                                           TraversalScratch& scratch,
                                           std::uint64_t sample_index, Sink& sink) const {
    std::uint32_t regenerated = 0;
    for (std::uint32_t attempt = 0;; ++attempt) {
      support::RandomStream rng(
          rng_seed, support::derive_stream(imm::kSampleStreamTag, sample_index, attempt));
      const graph::VertexId source = rng.next_below(g->num_vertices());
      ctx.charge_alu(2);  // lane 0 picks the source, seeds head/tail (Alg. 2 l.5-10)

      // Fresh epoch == "initialize M" without touching n words every sample.
      if (scratch.stamp.empty()) scratch.stamp.assign(g->num_vertices(), 0u);
      if (++scratch.epoch == 0) {
        std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
        scratch.epoch = 1;
      }
      scratch.queue.clear();
      scratch.queue.push_back(source);
      scratch.stamp[source] = scratch.epoch;

      if (model == graph::DiffusionModel::IndependentCascade) {
        if (plan != nullptr) {
          bfs_ic(ctx, scratch,
                 SkipDraws{*g, *plan, rng, scratch.draws, scratch.draws_skipped}, sink);
        } else {
          bfs_ic(ctx, scratch, ExactDraws(*g, scratch.draws, rng, source), sink);
        }
      } else if (plan != nullptr) {
        walk_lt(ctx, scratch, AliasPick{*g, *plan, rng, scratch.alias_picks}, sink);
      } else {
        walk_lt(ctx, scratch, ScanPick{*g, rng}, sink);
      }

      if (eliminate_sources) {
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
    sort_set(scratch.queue, scratch.sorted, g->num_vertices());
    return regenerated;
  }
};

/// run_wave runs a wave's slots on the host this many at a time.
inline constexpr std::uint64_t kRunSlots = 4096;

/// A sampling engine's scratch for one host pool thread: engines hold
/// ThreadPool::global().size() + 1, indexed by ThreadPool::worker_slot().
/// `staged` holds the sets the thread generated in the current run. It is
/// reserved here, on the thread that builds the engine, with room for a
/// whole run of sets averaging 64 members: grown on the pool threads
/// instead, it spread over their malloc arenas and raised peak RSS.
struct WaveScratch : TraversalScratch {
  WaveScratch() { staged.reserve(kRunSlots * 64); }
  std::vector<graph::VertexId> staged;
};

/// One generated slot of the current run.
struct WaveSlot {
  std::uint64_t cycles = 0;  ///< what generating it metered
  std::uint64_t at = 0;      ///< its set's offset in its thread's staged buffer
  std::uint32_t thread = 0;  ///< the worker slot that generated it
  std::uint32_t length = 0;  ///< its set's length
  std::uint32_t note = 0;    ///< what the engine's generate returned
};

/// Launch `label` as one sampling wave of `num_blocks` blocks over
/// `num_slots` pending slots. Slot s meters onto block s % num_blocks
/// (§3.2's round-robin assignment), so the per-block sums and the makespan
/// do not depend on the host. On the host the slots run in slot order,
/// kRunSlots at a time: generate(ctx, scratch, s) builds slot s's set in
/// scratch.queue in parallel, one scratch per thread, and returns its note;
/// collection.admit() then decides the run's commits in slot order, the
/// admitted sets publish in parallel, and settle(ctx, slot, admitted)
/// meters each slot's in-order step (commit charges, ordinal-priced
/// mallocs) serially. A wave stops at its first rejected slot r: each block
/// finishes the slot it holds and sees the overflow on the `count` atomic
/// its slot already charged, so slots r .. r + B - 1 start and are
/// rejected, and no slot from r + B on starts. The host generates whole
/// runs, so the run holding r + B may have generated slots past it; they
/// are not charged, settled or counted, and later runs are cut at r + B.
/// Every unstarted slot re-runs next wave. So the charges depend on r and
/// B alone, never on the run length.
///
/// Not a template, so its frames keep exported names for the profiler
/// (engines pass lambdas, which would make an instantiation file-local).
[[gnu::noinline]] inline void run_wave(
    gpusim::Device& device, const std::string& label, std::uint32_t num_blocks,
    std::uint64_t num_slots, std::vector<WaveScratch>& scratch,
    DeviceRrrCollection& collection,
    const std::function<std::uint32_t(gpusim::BlockContext&, TraversalScratch&,
                                      std::uint64_t)>& generate,
    const std::function<void(gpusim::BlockContext&, const WaveSlot&, bool)>& settle) {
  support::ThreadPool& pool = support::ThreadPool::global();
  const gpusim::DeviceSpec& spec = device.spec();
  device.launch_metered(label, num_blocks, [&](std::span<std::uint64_t> block_cycles) {
    std::vector<WaveSlot> slots;
    std::vector<std::uint32_t> lengths;
    bool open = true;           // no slot of this wave has been rejected yet
    std::uint64_t end = num_slots;  // slots from here on never start
    for (std::uint64_t begin = 0; begin < end; begin += kRunSlots) {
      const std::uint64_t count = std::min(kRunSlots, end - begin);
      slots.assign(count, WaveSlot{});
      lengths.resize(count);
      for (WaveScratch& s : scratch) s.staged.clear();
      pool.parallel_for(0, count, [&](std::size_t i) {
        const std::size_t thread = pool.worker_slot();
        WaveScratch& s = scratch[thread];
        gpusim::BlockContext ctx(static_cast<std::uint32_t>((begin + i) % num_blocks),
                                 spec);
        WaveSlot& slot = slots[i];
        slot.note = generate(ctx, s, begin + i);
        slot.cycles = ctx.cycles();
        slot.at = s.staged.size();
        slot.thread = static_cast<std::uint32_t>(thread);
        slot.length = lengths[i] = static_cast<std::uint32_t>(s.queue.size());
        if (open) s.staged.insert(s.staged.end(), s.queue.begin(), s.queue.end());
      }, /*grain=*/16);  // fine chunks: the run ends in a barrier

      // At most B rejected slots started: admit counts no more.
      const std::uint64_t admitted = collection.admit(lengths, num_blocks);
      const std::uint64_t first_set = collection.num_sets() - admitted;
      pool.parallel_for(0, admitted, [&](std::size_t i) {
        const WaveSlot& slot = slots[i];
        const graph::VertexId* set = scratch[slot.thread].staged.data() + slot.at;
        collection.publish(first_set + i, std::span(set, slot.length));
      });
      if (open && admitted < count) end = std::min(end, begin + admitted + num_blocks);
      const std::uint64_t started = std::min(count, end - begin);
      for (std::uint64_t i = 0; i < started; ++i) {
        const auto block = static_cast<std::uint32_t>((begin + i) % num_blocks);
        gpusim::BlockContext ctx(block, spec);
        settle(ctx, slots[i], i < admitted);
        block_cycles[block] += slots[i].cycles + ctx.cycles();
      }
      open = open && admitted == count;
    }
  });
}

}  // namespace eim::eim_impl
