#include "eim/graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::graph {

using support::RandomStream;

namespace {
constexpr std::uint64_t kGenStreamTag = 0x47454E45u;  // "GENE"

std::uint64_t edge_key(VertexId from, VertexId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
}  // namespace

EdgeList erdos_renyi(VertexId n, EdgeId m, std::uint64_t seed) {
  EIM_CHECK_MSG(n >= 2, "erdos_renyi needs at least two vertices");
  const auto max_edges = static_cast<EdgeId>(n) * (n - 1);
  EIM_CHECK_MSG(m <= max_edges / 2, "erdos_renyi: too dense for rejection sampling");

  RandomStream rng(seed, support::derive_stream(kGenStreamTag, 1));
  // The accepted edges' keys, + 1 so that 0 marks a free slot, in one flat
  // open-addressing table at most half full (no allocation per edge).
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * m, 2));
  const int shift = 64 - std::countr_zero(slots);
  std::vector<std::uint64_t> seen(slots, 0);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  while (edges.size() < m) {
    const VertexId u = rng.next_below(n);
    const VertexId v = rng.next_below(n);
    if (u == v) continue;
    const std::uint64_t key = edge_key(u, v) + 1;
    std::size_t slot = (key * 0x9E3779B97F4A7C15ull) >> shift;  // Fibonacci hash
    while (seen[slot] != 0 && seen[slot] != key) slot = (slot + 1) & (slots - 1);
    if (seen[slot] == key) continue;
    seen[slot] = key;
    edges.push_back(Edge{u, v});
  }
  EdgeList list(n, std::move(edges));
  list.normalize();
  return list;
}

EdgeList barabasi_albert(VertexId n, EdgeId edges_per_vertex, double reciprocal_fraction,
                         std::uint64_t seed) {
  EIM_CHECK_MSG(n >= 2 && edges_per_vertex >= 1, "barabasi_albert: bad parameters");
  EdgeList edges(n);
  RandomStream rng(seed, support::derive_stream(kGenStreamTag, 2));

  // Repeated-endpoint list: sampling an element uniformly is sampling a
  // vertex proportionally to its degree (the classic BA trick).
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(static_cast<std::size_t>(n) * edges_per_vertex * 2);

  // Small seed clique so early vertices have degree.
  const VertexId seed_size =
      std::max<VertexId>(2, static_cast<VertexId>(std::min<EdgeId>(edges_per_vertex + 1, n)));
  for (VertexId u = 0; u < seed_size; ++u) {
    const VertexId v = (u + 1) % seed_size;
    edges.add_edge(u, v);
    endpoint_pool.push_back(u);
    endpoint_pool.push_back(v);
  }

  for (VertexId u = seed_size; u < n; ++u) {
    std::unordered_set<VertexId> picked;
    for (EdgeId j = 0; j < edges_per_vertex; ++j) {
      VertexId target = kInvalidVertex;
      for (int attempt = 0; attempt < 16; ++attempt) {
        const auto idx = rng.next_below(static_cast<std::uint32_t>(endpoint_pool.size()));
        target = endpoint_pool[idx];
        if (target != u && !picked.contains(target)) break;
        target = kInvalidVertex;
      }
      if (target == kInvalidVertex) target = rng.next_below(u);  // uniform fallback
      if (target == u || picked.contains(target)) continue;
      picked.insert(target);
      edges.add_edge(u, target);
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(target);
      if (reciprocal_fraction > 0.0 && rng.next_double() < reciprocal_fraction) {
        edges.add_edge(target, u);
      }
    }
  }
  edges.normalize();
  return edges;
}

EdgeList watts_strogatz(VertexId n, VertexId ring_degree, double rewire_p,
                        std::uint64_t seed) {
  EIM_CHECK_MSG(n >= 4 && ring_degree >= 2 && ring_degree % 2 == 0,
                "watts_strogatz: need n >= 4 and even ring_degree >= 2");
  EIM_CHECK_MSG(ring_degree < n, "watts_strogatz: ring_degree must be < n");
  EdgeList edges(n);
  RandomStream rng(seed, support::derive_stream(kGenStreamTag, 3));

  for (VertexId u = 0; u < n; ++u) {
    for (VertexId hop = 1; hop <= ring_degree / 2; ++hop) {
      VertexId v = static_cast<VertexId>((u + hop) % n);
      if (rng.next_double() < rewire_p) {
        // Rewire the far endpoint to a uniform non-self target.
        VertexId w = rng.next_below(n);
        int guard = 0;
        while (w == u && ++guard < 8) w = rng.next_below(n);
        if (w != u) v = w;
      }
      edges.add_edge(u, v);
      edges.add_edge(v, u);
    }
  }
  edges.normalize();
  return edges;
}

EdgeList rmat(const RmatParams& params, std::uint64_t seed) {
  EIM_CHECK_MSG(params.scale >= 1 && params.scale <= 30, "rmat: scale out of range");
  const double sum = params.a + params.b + params.c + params.d;
  EIM_CHECK_MSG(sum > 0.999 && sum < 1.001, "rmat: quadrant probabilities must sum to 1");

  const VertexId n = static_cast<VertexId>(1u << params.scale);
  RandomStream rng(seed, support::derive_stream(kGenStreamTag, 4));

  const double ab = params.a + params.b;
  const double a_over_ab = params.a / ab;
  const double c_over_cd = params.c / (params.c + params.d);
  const bool reciprocate = params.reciprocal_fraction > 0.0;

  // The scalar next_double() sequence, generated in bulk: each double is
  // (hi << 32 | lo) >> 11 of two consecutive u32 draws, hi first, exactly as
  // next_u64() composes them. Draws are consumed strictly in stream order.
  const std::size_t per_edge = 2 * (3 * std::size_t{params.scale} + (reciprocate ? 1 : 0));
  std::vector<std::uint32_t> draws(per_edge * 256);
  std::size_t next = draws.size();
  const auto next_double = [&draws, &next]() {
    const std::uint64_t hi = draws[next++];
    const std::uint64_t lo = draws[next++];
    return static_cast<double>(((hi << 32) | lo) >> 11) * 0x1.0p-53;
  };

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(params.num_edges) * (reciprocate ? 2 : 1));
  for (EdgeId e = 0; e < params.num_edges; ++e) {
    // Top up so one edge's worth of draws (the most it can take) is
    // buffered: the leftover tail moves to the front, then the stream fills
    // the rest from where it stopped.
    if (draws.size() - next < per_edge) {
      const auto kept = std::copy(draws.begin() + static_cast<std::ptrdiff_t>(next),
                                  draws.end(), draws.begin());
      rng.fill_u32({kept, draws.end()});
      next = 0;
    }
    VertexId u = 0;
    VertexId v = 0;
    for (std::uint32_t bit = 0; bit < params.scale; ++bit) {
      // Mild parameter noise per level avoids the artificial "staircase"
      // degree plot of vanilla R-MAT (standard Graph500 smoothing).
      const double jitter = 0.95 + 0.1 * next_double();
      const bool down = next_double() >= ab * jitter / (ab * jitter + (1.0 - ab));
      const bool right = next_double() >= (down ? c_over_cd : a_over_ab);
      u = static_cast<VertexId>((u << 1) | (down ? 1u : 0u));
      v = static_cast<VertexId>((v << 1) | (right ? 1u : 0u));
    }
    if (u == v) continue;
    edges.push_back(Edge{u, v});
    if (reciprocate && next_double() < params.reciprocal_fraction) {
      edges.push_back(Edge{v, u});
    }
  }
  EdgeList list(n, std::move(edges));
  list.normalize();
  return list;
}

EdgeList path_graph(VertexId n) {
  EIM_CHECK(n >= 1);
  EdgeList edges(n);
  for (VertexId u = 0; u + 1 < n; ++u) edges.add_edge(u, u + 1);
  return edges;
}

EdgeList star_graph(VertexId n) {
  EIM_CHECK(n >= 1);
  EdgeList edges(n);
  for (VertexId v = 1; v < n; ++v) edges.add_edge(0, v);
  return edges;
}

EdgeList cycle_graph(VertexId n) {
  EIM_CHECK(n >= 2);
  EdgeList edges(n);
  for (VertexId u = 0; u < n; ++u) edges.add_edge(u, static_cast<VertexId>((u + 1) % n));
  return edges;
}

EdgeList complete_graph(VertexId n) {
  EIM_CHECK(n >= 2);
  EdgeList edges(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) edges.add_edge(u, v);
    }
  }
  return edges;
}

EdgeList bipartite_graph(VertexId left, VertexId right) {
  EIM_CHECK(left >= 1 && right >= 1);
  EdgeList edges(static_cast<VertexId>(left + right));
  for (VertexId u = 0; u < left; ++u) {
    for (VertexId v = 0; v < right; ++v) {
      edges.add_edge(u, static_cast<VertexId>(left + v));
    }
  }
  return edges;
}

}  // namespace eim::graph
