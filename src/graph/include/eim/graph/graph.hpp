// The weighted directed graph type consumed by every algorithm in the
// library.
//
// Holds both directions of adjacency: CSC (in-neighbors, traversed by the
// reverse-influence samplers) and CSR (out-neighbors, traversed by the
// forward diffusion simulator that validates seed quality). Edge weights are
// stored per direction so both traversals are cache-friendly.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "eim/graph/csc.hpp"
#include "eim/graph/edge_list.hpp"
#include "eim/graph/types.hpp"

namespace eim::graph {

struct DrawPlan;  // draw_plan.hpp — fast-draw sidecar built by assign_weights

class Graph {
 public:
  Graph() = default;

  /// Build both adjacency directions from an edge list.
  /// The list should be normalized (no duplicates/self-loops); weights start
  /// at zero — call assign_weights (weights.hpp) before running diffusion.
  static Graph from_edge_list(const EdgeList& edges);

  /// Assemble from prebuilt adjacency directions, which must describe the
  /// same arcs (sync_out_weights_from_in throws if they do not); weights
  /// start at zero.
  static Graph from_adjacency(Adjacency in, Adjacency out);

  [[nodiscard]] VertexId num_vertices() const noexcept { return in_.num_vertices(); }
  [[nodiscard]] EdgeId num_edges() const noexcept { return in_.num_edges(); }

  /// CSC view: in().neighbors(v) are all u with an edge u -> v.
  [[nodiscard]] const Adjacency& in() const noexcept { return in_; }
  /// CSR view: out().neighbors(u) are all v with an edge u -> v.
  [[nodiscard]] const Adjacency& out() const noexcept { return out_; }

  [[nodiscard]] EdgeId in_degree(VertexId v) const noexcept { return in_.degree(v); }
  [[nodiscard]] EdgeId out_degree(VertexId v) const noexcept { return out_.degree(v); }

  /// Weight p_{uv} of the j-th in-edge of v (parallel to in().neighbors(v)).
  [[nodiscard]] std::span<const Weight> in_weights(VertexId v) const noexcept {
    return {in_weights_.data() + in_.offsets[v], in_weights_.data() + in_.offsets[v + 1]};
  }
  /// Weight p_{uv} of the j-th out-edge of u (parallel to out().neighbors(u)).
  [[nodiscard]] std::span<const Weight> out_weights(VertexId u) const noexcept {
    return {out_weights_.data() + out_.offsets[u],
            out_weights_.data() + out_.offsets[u + 1]};
  }

  [[nodiscard]] std::span<const Weight> all_in_weights() const noexcept {
    return in_weights_;
  }

  /// Mutable access for the weight-assignment routines. Invalidates the
  /// draw plan: its cached classifications describe the old weights.
  [[nodiscard]] std::vector<Weight>& mutable_in_weights() noexcept {
    draw_plan_.reset();
    return in_weights_;
  }
  [[nodiscard]] std::vector<Weight>& mutable_out_weights() noexcept {
    draw_plan_.reset();
    return out_weights_;
  }

  /// Fast-draw sidecar (draw_plan.hpp) built by assign_weights; null until
  /// weights are assigned or after any mutable weight access. Shared
  /// read-only across samplers and multi-GPU shards.
  [[nodiscard]] const DrawPlan* draw_plan() const noexcept { return draw_plan_.get(); }
  void set_draw_plan(std::shared_ptr<const DrawPlan> plan) noexcept {
    draw_plan_ = std::move(plan);
  }

  /// Copy every in-edge weight to its mirror out-edge entry.
  /// Called by assign_weights after filling the in-direction.
  void sync_out_weights_from_in();

  /// Bytes used by the uncompressed CSC arrays (offsets + neighbors +
  /// weights) — the quantity the paper's Fig. 4 compares log encoding
  /// against.
  [[nodiscard]] std::uint64_t csc_bytes() const noexcept;

 private:
  Adjacency in_;
  Adjacency out_;
  std::vector<Weight> in_weights_;
  std::vector<Weight> out_weights_;
  std::shared_ptr<const DrawPlan> draw_plan_;
};

/// Degree statistics used by Table 1 and the dataset registry.
struct GraphStats {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  EdgeId max_in_degree = 0;
  EdgeId max_out_degree = 0;
  double avg_degree = 0.0;
  VertexId zero_in_degree_count = 0;  ///< these always yield singleton RRR sets
};

[[nodiscard]] GraphStats compute_stats(const Graph& g);

}  // namespace eim::graph
