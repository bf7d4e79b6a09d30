// Mutable edge-list representation used while constructing or loading graphs.
#pragma once

#include <cstddef>
#include <vector>

#include "eim/graph/types.hpp"

namespace eim::graph {

/// A bag of directed edges plus a vertex-count bound.
///
/// `num_vertices` may exceed the largest endpoint + 1 (isolated vertices are
/// legal and occur in real SNAP data).
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(VertexId num_vertices) : num_vertices_(num_vertices) {}
  EdgeList(VertexId num_vertices, std::vector<Edge> edges);

  void add_edge(VertexId from, VertexId to);

  /// Grow the vertex bound (never shrinks).
  void ensure_vertex(VertexId v);

  /// Sort by (from, to) and drop duplicate edges and self-loops.
  /// SNAP social graphs contain both; IMM's diffusion models assume neither.
  /// The sort is an LSD radix sort on the (from, to) key, sized from
  /// num_vertices(), with one scratch array the size of the edges.
  void normalize();

  /// Add the reverse of every edge (used to model undirected SNAP datasets,
  /// which the IM literature treats as bidirectional influence).
  void make_bidirectional();

  [[nodiscard]] VertexId num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
  [[nodiscard]] std::vector<Edge>& edges() noexcept { return edges_; }

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace eim::graph
