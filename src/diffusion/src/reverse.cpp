#include "eim/diffusion/reverse.hpp"

#include <algorithm>

#include "eim/support/error.hpp"

namespace eim::diffusion {

using graph::VertexId;
using support::RandomStream;

RrrSampler::RrrSampler(const graph::Graph& g, graph::DiffusionModel model,
                       bool eliminate_source)
    : graph_(&g),
      model_(model),
      eliminate_source_(eliminate_source),
      stamp_(g.num_vertices(), 0) {}

void RrrSampler::sample_into(VertexId source, RandomStream& rng,
                             std::vector<VertexId>& out) {
  EIM_CHECK_MSG(source < graph_->num_vertices(), "source out of range");
  out.clear();
  ++epoch_;
  if (epoch_ == 0) {  // stamp wrapped: invalidate everything once
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  if (model_ == graph::DiffusionModel::IndependentCascade) {
    sample_ic(source, rng, out);
  } else {
    sample_lt(source, rng, out);
  }
  if (eliminate_source_) {
    // The source is always out[0]: it was pushed first and the set is not
    // yet sorted.
    out.erase(out.begin());
  }
  std::sort(out.begin(), out.end());
}

std::vector<VertexId> RrrSampler::sample(VertexId source, RandomStream& rng) {
  std::vector<VertexId> out;
  sample_into(source, rng, out);
  return out;
}

void RrrSampler::sample_ic(VertexId source, RandomStream& rng,
                           std::vector<VertexId>& out) {
  const graph::Graph& g = *graph_;
  out.push_back(source);
  stamp_[source] = epoch_;

  // Hoisted out of the loop: `out.push_back` writes through a uint32
  // pointer, so without the locals the compiler must reload the stamp
  // base/epoch members on every edge (this loop is the profile's top bucket).
  std::uint32_t* const stamp = stamp_.data();
  const std::uint32_t epoch = epoch_;

  // Activation draws come from a bulk-filled buffer, one per unvisited
  // neighbor in stream order — the same sequence as a next_float() call per
  // edge. finish_sample rewinds `rng` to the draws actually consumed, so a
  // caller that keeps drawing from the stream afterwards sees the scalar
  // sequence (this sampler is the library's draw-order reference).
  auto c = draws_.begin_sample(rng);
  // In-degree sum of every queued-but-unswept vertex: the exact number of
  // draws the current frontier can still consume. Sizing refills to it
  // keeps fills demand-driven — a cascade that dies young never generates
  // more Philox blocks than the scalar loop would.
  std::size_t pending = g.in().neighbors(source).size();

  // Queue-as-set BFS, mirroring Algorithm 2's "the queue is the RRR set".
  for (std::size_t head = 0; head < out.size(); ++head) {
    const VertexId u = out[head];
    const auto ins = g.in().neighbors(u);
    const auto ws = g.in_weights(u);
    c = draws_.ensure(c, rng, ins.size(), pending);
    std::size_t t = 0;
    for (std::size_t j = 0; j < ins.size(); ++j) {
      const VertexId v = ins[j];
      if (stamp[v] == epoch) continue;
      // Strict <: next_float() lands exactly on a representable weight with
      // probability 2^-24 per draw, and `<=` let a weight-0.0 edge activate
      // on a zero draw. P(draw < w) = w exactly for the 2^-24-grid draws.
      if (c.p[t++] < ws[j]) {
        stamp[v] = epoch;
        out.push_back(v);
        pending += g.in().neighbors(v).size();
      }
    }
    c.p += t;
    c.avail -= t;
    pending -= ins.size();
  }
  draws_.finish_sample(rng, c);
}

void RrrSampler::sample_lt(VertexId source, RandomStream& rng,
                           std::vector<VertexId>& out) {
  const graph::Graph& g = *graph_;
  out.push_back(source);
  stamp_[source] = epoch_;

  // Backwards walk: at u, exactly one in-neighbor (or none) is responsible
  // for u's activation; it is chosen with probability equal to its weight.
  VertexId u = source;
  for (;;) {
    const auto ins = g.in().neighbors(u);
    const auto ws = g.in_weights(u);
    if (ins.empty()) break;
    const float tau = rng.next_float();
    float cumulative = 0.0f;
    VertexId chosen = graph::kInvalidVertex;
    for (std::size_t j = 0; j < ins.size(); ++j) {
      cumulative += ws[j];
      if (tau < cumulative) {
        chosen = ins[j];
        break;
      }
    }
    if (chosen == graph::kInvalidVertex) break;  // tau fell in the no-one gap
    if (stamp_[chosen] == epoch_) break;         // walk closed a loop
    stamp_[chosen] = epoch_;
    out.push_back(chosen);
    u = chosen;
  }
}

std::vector<VertexId> sample_rrr_ic(const graph::Graph& g, VertexId source,
                                    RandomStream& rng, bool eliminate_source) {
  RrrSampler sampler(g, graph::DiffusionModel::IndependentCascade, eliminate_source);
  return sampler.sample(source, rng);
}

std::vector<VertexId> sample_rrr_lt(const graph::Graph& g, VertexId source,
                                    RandomStream& rng, bool eliminate_source) {
  RrrSampler sampler(g, graph::DiffusionModel::LinearThreshold, eliminate_source);
  return sampler.sample(source, rng);
}

}  // namespace eim::diffusion
