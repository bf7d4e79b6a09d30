// Synthetic network generators.
//
// The benchmark registry (registry.hpp) builds scaled stand-ins for the 16
// SNAP datasets in the paper's Table 1 out of these families. What matters
// for reproducing the paper's per-network effects is the in-degree
// distribution (it determines IC edge probabilities 1/d^-, RRR-set depth,
// and the singleton-set fraction that drives Figs. 5-6), so each family
// controls degree skew, reciprocity, and density.
//
// All generators are deterministic in (params, seed).
#pragma once

#include <cstdint>

#include "eim/graph/edge_list.hpp"

namespace eim::graph {

/// G(n, m): m directed edges chosen uniformly (no duplicates/self-loops).
/// Near-uniform degrees — used for the P2P-Gnutella stand-in.
[[nodiscard]] EdgeList erdos_renyi(VertexId n, EdgeId m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches
/// `edges_per_vertex` out-edges to existing vertices, probability
/// proportional to current degree. Power-law in-degrees — the social-network
/// stand-in. `reciprocal_fraction` of edges also get a reverse arc
/// (friendship reciprocity).
[[nodiscard]] EdgeList barabasi_albert(VertexId n, EdgeId edges_per_vertex,
                                       double reciprocal_fraction, std::uint64_t seed);

/// Watts–Strogatz small world on a ring: degree-regular + rewiring.
/// High clustering, tiny degree variance — the co-purchase (com-Amazon)
/// stand-in. Edges are emitted in both directions (undirected semantics).
[[nodiscard]] EdgeList watts_strogatz(VertexId n, VertexId ring_degree, double rewire_p,
                                      std::uint64_t seed);

/// R-MAT / Kronecker-style sampler over a 2^scale vertex grid.
/// (a, b, c, d) control skew; web-graph stand-ins use strong skew.
struct RmatParams {
  std::uint32_t scale = 16;       ///< n = 2^scale
  EdgeId num_edges = 1 << 20;
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  /// Fraction of generated arcs that also get their reverse arc.
  double reciprocal_fraction = 0.0;
};
/// The draw order is part of the contract, because the golden graph
/// digests, the registry stand-ins and every seed downstream depend on it.
/// All draws come from one stream in next_double() order: per edge, three
/// per level (jitter, row, column) for `scale` levels, then one more for the
/// reverse arc when u != v and reciprocal_fraction > 0. A self-loop is
/// dropped and draws nothing more.
[[nodiscard]] EdgeList rmat(const RmatParams& params, std::uint64_t seed);

// -- Deterministic micro-graphs for unit tests ------------------------------

/// 0 -> 1 -> 2 -> ... -> n-1.
[[nodiscard]] EdgeList path_graph(VertexId n);
/// Hub 0 -> {1..n-1}.
[[nodiscard]] EdgeList star_graph(VertexId n);
/// 0 -> 1 -> ... -> n-1 -> 0.
[[nodiscard]] EdgeList cycle_graph(VertexId n);
/// All ordered pairs (u, v), u != v.
[[nodiscard]] EdgeList complete_graph(VertexId n);
/// Layers {0..left-1} -> {left..left+right-1}, complete bipartite.
[[nodiscard]] EdgeList bipartite_graph(VertexId left, VertexId right);

}  // namespace eim::graph
