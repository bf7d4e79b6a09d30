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
// diffusion::RrrSampler stays a separate, serial implementation on purpose:
// it is the independent reference the parity suites hold this kernel to.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "eim/gpusim/context.hpp"
#include "eim/graph/draw_plan.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/imm.hpp"
#include "eim/support/rng.hpp"

namespace eim::eim_impl {

/// The visited bitmap M as an epoch-stamped n-word array: v is in the
/// sample being generated iff stamp[v] == epoch, so starting a sample is
/// one increment instead of clearing n bits.
struct Stamps {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  Stamps* next_free = nullptr;  ///< free-list link while not checked out
};

/// One block's host scratch for the traversal.
struct TraversalScratch {
  std::vector<graph::VertexId> queue;  ///< the block's queue; becomes the RRR set
  Stamps* marks = nullptr;             ///< M, leased while a block body runs
  support::FloatDrawBuffer draws;      ///< bulk activation draws (ExactDraws)
  std::uint64_t draws_skipped = 0;     ///< Bernoulli draws avoided (SkipDraws)
  std::uint64_t alias_picks = 0;       ///< O(1) LT picks taken (AliasPick)
};

/// Host stamp arrays for one sampler. A block's M is only live while its
/// body runs, so the pool grows to the number of bodies the host ever ran
/// at once (its thread count), not to one n-word array per simulated block.
class StampPool {
 public:
  explicit StampPool(graph::VertexId num_vertices) noexcept
      : num_vertices_(num_vertices) {}

  /// Checks an array out into `scratch.marks` for one block body and
  /// returns it on scope exit (exceptions included).
  class Lease {
   public:
    Lease(StampPool& pool, TraversalScratch& scratch) : pool_(pool), scratch_(scratch) {
      {
        const std::lock_guard lock(pool.mutex_);
        if (pool.free_ != nullptr) {
          scratch.marks = std::exchange(pool.free_, pool.free_->next_free);
          return;
        }
      }
      // Every array is checked out: one more body runs concurrently than
      // ever before. Zero its n words outside the lock.
      auto fresh = std::make_unique<Stamps>();
      fresh->stamp.assign(pool.num_vertices_, 0);
      const std::lock_guard lock(pool.mutex_);
      pool.arrays_.push_back(std::move(fresh));
      scratch.marks = pool.arrays_.back().get();
    }
    ~Lease() {
      const std::lock_guard lock(pool_.mutex_);
      scratch_.marks->next_free = pool_.free_;
      pool_.free_ = std::exchange(scratch_.marks, nullptr);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

   private:
    StampPool& pool_;
    TraversalScratch& scratch_;
  };

 private:
  graph::VertexId num_vertices_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Stamps>> arrays_;  ///< owns every array
  Stamps* free_ = nullptr;                       ///< free-list head
};

/// IC draw policy: one activation draw per *unvisited* in-neighbor, in
/// stream order — the exact consumption contract of the serial reference.
/// Draws are generated in bulk (fill_floats) ahead of each edge sweep, so
/// the per-edge work is a flat scan of precomputed draws against weights
/// instead of a Philox call per edge; the destructor rewinds the stream to
/// what was actually taken.
class ExactDraws {
 public:
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
    std::size_t t = 0;
    for (std::size_t j = 0; j < ins.size(); ++j) {
      const graph::VertexId v = ins[j];
      if (stamp[v] == epoch) continue;
      // Strict < (not <=): a zero-weight edge must never activate, and the
      // serial reference uses the same comparison for bit-parity.
      if (c.p[t++] < ws[j]) {
        pending_ += g_.in().neighbors(v).size();
        fire(v);
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
  // stamp/epoch as locals spares a per-edge member reload (hot loop). The
  // lease holds the array for the whole body, so its base is stable.
  std::uint32_t* const stamp = scratch.marks->stamp.data();
  const std::uint32_t epoch = scratch.marks->epoch;
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
  Stamps& marks = *scratch.marks;
  for (graph::VertexId u = scratch.queue.front(); pick.g.in_degree(u) != 0;) {
    const float tau = pick.rng.next_float();
    ctx.charge_alu(1);  // lane 0 draws tau (AliasPick: and splits bucket, coin)
    const graph::VertexId chosen = pick.pick(ctx, u, tau, sink);
    if (chosen == graph::kInvalidVertex) break;  // tau in the no-one gap
    if (marks.stamp[chosen] == marks.epoch) break;  // walk closed a loop
    marks.stamp[chosen] = marks.epoch;
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
      Stamps& marks = *scratch.marks;
      if (++marks.epoch == 0) {
        std::fill(marks.stamp.begin(), marks.stamp.end(), 0u);
        marks.epoch = 1;
      }
      scratch.queue.clear();
      scratch.queue.push_back(source);
      marks.stamp[source] = marks.epoch;

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
    std::sort(scratch.queue.begin(), scratch.queue.end());
    return regenerated;
  }
};

}  // namespace eim::eim_impl
