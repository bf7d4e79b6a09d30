#include "eim/graph/edge_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::graph {
namespace {

TEST(EdgeList, StartsEmpty) {
  EdgeList edges;
  EXPECT_EQ(edges.num_vertices(), 0u);
  EXPECT_EQ(edges.num_edges(), 0u);
}

TEST(EdgeList, AddEdgeGrowsVertexBound) {
  EdgeList edges;
  edges.add_edge(3, 7);
  EXPECT_EQ(edges.num_vertices(), 8u);
  EXPECT_EQ(edges.num_edges(), 1u);
}

TEST(EdgeList, ExplicitVertexCountAllowsIsolatedVertices) {
  EdgeList edges(10);
  edges.add_edge(0, 1);
  EXPECT_EQ(edges.num_vertices(), 10u);
}

TEST(EdgeList, NormalizeRemovesDuplicatesAndSelfLoops) {
  EdgeList edges(4);
  edges.add_edge(0, 1);
  edges.add_edge(0, 1);
  edges.add_edge(2, 2);
  edges.add_edge(1, 0);
  edges.normalize();
  EXPECT_EQ(edges.num_edges(), 2u);
  EXPECT_EQ(edges.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(edges.edges()[1], (Edge{1, 0}));
}

TEST(EdgeList, NormalizeSortsByFromThenTo) {
  EdgeList edges(4);
  edges.add_edge(2, 1);
  edges.add_edge(0, 3);
  edges.add_edge(2, 0);
  edges.add_edge(0, 1);
  edges.normalize();
  const auto& e = edges.edges();
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[0], (Edge{0, 1}));
  EXPECT_EQ(e[1], (Edge{0, 3}));
  EXPECT_EQ(e[2], (Edge{2, 0}));
  EXPECT_EQ(e[3], (Edge{2, 1}));
}

TEST(EdgeList, MakeBidirectionalMirrorsEveryEdge) {
  EdgeList edges(3);
  edges.add_edge(0, 1);
  edges.add_edge(1, 2);
  edges.make_bidirectional();
  EXPECT_EQ(edges.num_edges(), 4u);
}

TEST(EdgeList, MakeBidirectionalIdempotentOnSymmetricInput) {
  EdgeList edges(2);
  edges.add_edge(0, 1);
  edges.add_edge(1, 0);
  edges.make_bidirectional();
  EXPECT_EQ(edges.num_edges(), 2u);
}

TEST(EdgeList, ConstructorRejectsOutOfRangeEndpoint) {
  EXPECT_THROW(EdgeList(2, {Edge{0, 5}}), support::Error);
}

TEST(EdgeList, RejectsSentinelVertexId) {
  EdgeList edges;
  EXPECT_THROW(edges.ensure_vertex(kInvalidVertex), support::Error);
}

// -- normalize() against the comparison-sort reference ----------------------

/// Self-loop erase, sort by (from, to), drop adjacent duplicates.
std::vector<Edge> reference_normalize(std::vector<Edge> edges) {
  std::erase_if(edges, [](const Edge& e) { return e.from == e.to; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

void expect_normalizes_like_reference(VertexId n, const std::vector<Edge>& raw) {
  EdgeList edges(n, raw);
  edges.normalize();
  EXPECT_EQ(edges.num_vertices(), n);
  EXPECT_EQ(edges.edges(), reference_normalize(raw));
}

/// `m` edges with endpoints in [lo, lo + span), a `dup_fraction` of them
/// repeating an earlier edge (the classic SNAP duplicate pattern).
std::vector<Edge> random_edges(support::RandomStream& rng, VertexId lo, VertexId span,
                               std::size_t m, double dup_fraction) {
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (!edges.empty() && rng.next_double() < dup_fraction) {
      edges.push_back(edges[rng.next_below(static_cast<std::uint32_t>(edges.size()))]);
    } else {
      edges.push_back(Edge{lo + rng.next_below(span), lo + rng.next_below(span)});
    }
  }
  return edges;
}

TEST(EdgeListNormalize, EmptyAndSingleEdge) {
  expect_normalizes_like_reference(0, {});
  expect_normalizes_like_reference(5, {});
  expect_normalizes_like_reference(5, {Edge{3, 1}});
  expect_normalizes_like_reference(5, {Edge{2, 2}});
}

TEST(EdgeListNormalize, AllSelfLoops) {
  std::vector<Edge> raw;
  for (VertexId v = 0; v < 300; ++v) raw.push_back(Edge{v % 37, v % 37});
  expect_normalizes_like_reference(37, raw);
}

TEST(EdgeListNormalize, SingleVertexHasOnlySelfLoops) {
  expect_normalizes_like_reference(1, std::vector<Edge>(17, Edge{0, 0}));
}

TEST(EdgeListNormalize, HeavyDuplicates) {
  support::RandomStream rng(3, 1);
  expect_normalizes_like_reference(8, random_edges(rng, 0, 8, 5000, 0.9));
  expect_normalizes_like_reference(2, random_edges(rng, 0, 2, 1000, 0.0));
}

TEST(EdgeListNormalize, IdsNearTheSentinel) {
  // num_vertices = kInvalidVertex admits ids up to kInvalidVertex - 1: the
  // (from, to) key then needs all 64 bits.
  support::RandomStream rng(5, 1);
  constexpr VertexId kSpan = 1000;
  const VertexId lo = kInvalidVertex - kSpan;
  std::vector<Edge> raw = random_edges(rng, lo, kSpan, 20'000, 0.3);
  raw.push_back(Edge{kInvalidVertex - 1, 0});
  raw.push_back(Edge{0, kInvalidVertex - 1});
  raw.push_back(Edge{kInvalidVertex - 1, kInvalidVertex - 2});
  raw.push_back(Edge{kInvalidVertex - 1, kInvalidVertex - 1});
  expect_normalizes_like_reference(kInvalidVertex, raw);
  // Endpoints spread over the whole id range, not just its top.
  expect_normalizes_like_reference(kInvalidVertex,
                                   random_edges(rng, 0, kInvalidVertex, 20'000, 0.2));
}

TEST(EdgeListNormalize, RandomisedAgainstReference) {
  support::RandomStream rng(11, 2);
  // Vertex counts straddle the powers of two a radix digit width could
  // trip on; edge counts run from a handful to a few hundred thousand.
  const VertexId sizes[] = {2, 3, 255, 256, 257, 4095, 4096, 4097, 65'535,
                            65'537, 1u << 20, (1u << 24) + 3, 1u << 31};
  for (const VertexId n : sizes) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{4'000},
                                std::size_t{150'000}}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      const double dup = rng.next_double() * 0.5;
      expect_normalizes_like_reference(n, random_edges(rng, 0, n, m, dup));
    }
  }
}

TEST(EdgeListNormalize, MakeBidirectionalMatchesReference) {
  support::RandomStream rng(13, 1);
  const std::vector<Edge> raw = random_edges(rng, 0, 500, 8'000, 0.2);
  EdgeList edges(500, raw);
  edges.make_bidirectional();
  std::vector<Edge> both = raw;
  for (const Edge& e : raw) both.push_back(Edge{e.to, e.from});
  EXPECT_EQ(edges.edges(), reference_normalize(both));
}

}  // namespace
}  // namespace eim::graph
