// CPU-reference random reverse-reachable (RRR) set samplers.
//
// These are the textbook single-threaded samplers of Borgs et al. / Tang et
// al.: an RRR set for source s is the set of vertices that would activate s
// in a forward cascade, computed by running the diffusion *backwards* from
// s. The GPU-simulator kernels in eim/eim and eim/baselines must agree with
// these in distribution — that equivalence is property-tested.
//
// Conventions shared with the kernels:
//  * the returned set is sorted ascending by vertex id (§3.2's ordering that
//    enables binary search during seed selection);
//  * the source itself is included unless `eliminate_source` is set (§3.4).
#pragma once

#include <cstdint>
#include <vector>

#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/support/rng.hpp"

namespace eim::diffusion {

/// Reusable sampler: owns an epoch-stamped visited array so repeated
/// sampling costs O(|set|) per draw instead of O(n). This is what the serial
/// IMM reference iterates millions of times.
class RrrSampler {
 public:
  RrrSampler(const graph::Graph& g, graph::DiffusionModel model,
             bool eliminate_source = false);

  /// Draw one RRR set from `source` into `out` (cleared first, sorted
  /// ascending on return).
  void sample_into(graph::VertexId source, support::RandomStream& rng,
                   std::vector<graph::VertexId>& out);

  [[nodiscard]] std::vector<graph::VertexId> sample(graph::VertexId source,
                                                    support::RandomStream& rng);

  [[nodiscard]] bool eliminates_source() const noexcept { return eliminate_source_; }

  /// Wire the bulk-draw refill wall timer (nullptr detaches); forwarded to
  /// the internal FloatDrawBuffer, which only times fills of at least
  /// FloatDrawBuffer::kTimedRefillDraws draws.
  void attach_refill_timer(support::metrics::Histogram* timer) noexcept {
    draws_.attach_refill_timer(timer);
  }

 private:
  void sample_ic(graph::VertexId source, support::RandomStream& rng,
                 std::vector<graph::VertexId>& out);
  void sample_lt(graph::VertexId source, support::RandomStream& rng,
                 std::vector<graph::VertexId>& out);

  const graph::Graph* graph_;
  graph::DiffusionModel model_;
  bool eliminate_source_;
  std::vector<std::uint32_t> stamp_;  ///< visited iff stamp_[v] == epoch_
  std::uint32_t epoch_ = 0;
  support::FloatDrawBuffer draws_;    ///< bulk activation draws (IC BFS)
};

/// IC reverse sampler: probabilistic reverse BFS from `source`; each in-edge
/// (u -> source-side vertex) is flipped once with probability p_{uv}.
[[nodiscard]] std::vector<graph::VertexId> sample_rrr_ic(const graph::Graph& g,
                                                         graph::VertexId source,
                                                         support::RandomStream& rng,
                                                         bool eliminate_source = false);

/// LT reverse sampler: a backwards random walk — each visited vertex u
/// activates at most one in-neighbor, chosen with probability equal to its
/// edge weight (or none with the leftover probability); the walk stops on a
/// revisit or when nothing activates.
[[nodiscard]] std::vector<graph::VertexId> sample_rrr_lt(const graph::Graph& g,
                                                         graph::VertexId source,
                                                         support::RandomStream& rng,
                                                         bool eliminate_source = false);

}  // namespace eim::diffusion
