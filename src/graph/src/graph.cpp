#include "eim/graph/graph.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "eim/support/error.hpp"

namespace eim::graph {

Graph Graph::from_edge_list(const EdgeList& edges) {
  return from_adjacency(build_in_adjacency(edges), build_out_adjacency(edges));
}

Graph Graph::from_adjacency(Adjacency in, Adjacency out) {
  Graph g;
  g.in_ = std::move(in);
  g.out_ = std::move(out);
  g.in_weights_.assign(g.in_.targets.size(), 0.0f);
  g.out_weights_.assign(g.out_.targets.size(), 0.0f);
  return g;
}

void Graph::sync_out_weights_from_in() {
  // Transpose the in-direction: walking v ascending over its in-slice
  // visits each u's out-edges in ascending target order, so the next free
  // slot of u's out-slice is the mirror of in-edge (u, v). The copies of a
  // duplicated arc all take the weight of its first in-copy.
  //
  // The directions agree iff every mirror slot holds v and every out-slice
  // is filled exactly; a slot past the end only bounds the writes.
  const VertexId n = num_vertices();
  const EdgeId m = out_.num_edges();
  EIM_CHECK_MSG(out_.num_vertices() == n && in_.num_edges() == m,
                "adjacency directions disagree");
  const EdgeId* in_offsets = in_.offsets.data();
  const VertexId* sources = in_.targets.data();
  const VertexId* out_targets = out_.targets.data();
  const Weight* in_weights = in_weights_.data();
  Weight* out_weights = out_weights_.data();
  std::vector<EdgeId> cursor(out_.offsets.begin(), out_.offsets.begin() + n);
  for (VertexId v = 0; v < n; ++v) {
    EdgeId first = in_offsets[v];
    for (EdgeId i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
      const VertexId u = sources[i];
      if (u != sources[first]) first = i;
      const EdgeId pos = cursor[u]++;
      EIM_CHECK_MSG(pos < m && out_targets[pos] == v, "adjacency directions disagree");
      out_weights[pos] = in_weights[first];
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    EIM_CHECK_MSG(cursor[u] == out_.offsets[u + 1], "adjacency directions disagree");
  }
}

std::uint64_t Graph::csc_bytes() const noexcept {
  return static_cast<std::uint64_t>(in_.offsets.size()) * sizeof(EdgeId) +
         static_cast<std::uint64_t>(in_.targets.size()) * sizeof(VertexId) +
         static_cast<std::uint64_t>(in_weights_.size()) * sizeof(Weight);
}

GraphStats compute_stats(const Graph& g) {
  GraphStats s;
  s.num_vertices = g.num_vertices();
  s.num_edges = g.num_edges();
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    const EdgeId din = g.in_degree(v);
    const EdgeId dout = g.out_degree(v);
    s.max_in_degree = std::max(s.max_in_degree, din);
    s.max_out_degree = std::max(s.max_out_degree, dout);
    if (din == 0) ++s.zero_in_degree_count;
  }
  s.avg_degree = s.num_vertices == 0
                     ? 0.0
                     : static_cast<double>(s.num_edges) / s.num_vertices;
  return s;
}

}  // namespace eim::graph
