#include "eim/graph/csc.hpp"

#include <algorithm>
#include <numeric>

namespace eim::graph {

namespace {

/// Counting-sort style CSR construction keyed by `key(edge)`,
/// storing `value(edge)` sorted ascending within each slice.
template <typename KeyFn, typename ValueFn>
Adjacency build_adjacency(const EdgeList& edges, KeyFn key, ValueFn value) {
  const VertexId n = edges.num_vertices();
  Adjacency adj;
  adj.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges.edges()) {
    ++adj.offsets[key(e) + 1];
  }
  std::partial_sum(adj.offsets.begin(), adj.offsets.end(), adj.offsets.begin());

  adj.targets.resize(edges.num_edges());
  std::vector<EdgeId> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const Edge& e : edges.edges()) {
    adj.targets[cursor[key(e)]++] = value(e);
  }
  // The scatter is stable, so a normalized list already yields sorted
  // slices; only an unsorted input pays for the sort.
  for (VertexId v = 0; v < n; ++v) {
    const auto begin = adj.targets.begin() + static_cast<std::ptrdiff_t>(adj.offsets[v]);
    const auto end = adj.targets.begin() + static_cast<std::ptrdiff_t>(adj.offsets[v + 1]);
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
  }
  return adj;
}

}  // namespace

Adjacency build_in_adjacency(const EdgeList& edges) {
  return build_adjacency(
      edges, [](const Edge& e) { return e.to; }, [](const Edge& e) { return e.from; });
}

Adjacency build_out_adjacency(const EdgeList& edges) {
  return build_adjacency(
      edges, [](const Edge& e) { return e.from; }, [](const Edge& e) { return e.to; });
}

}  // namespace eim::graph
