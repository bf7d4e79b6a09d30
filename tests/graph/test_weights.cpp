#include "eim/graph/weights.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "eim/graph/generators.hpp"
#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::graph {
namespace {

Graph test_graph() { return Graph::from_edge_list(barabasi_albert(400, 3, 0.2, 17)); }

TEST(Weights, InDegreeSchemeMatchesPaperFormula) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::IndependentCascade);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.in_weights(v);
    const auto d = static_cast<float>(g.in_degree(v));
    for (const Weight w : ws) EXPECT_FLOAT_EQ(w, 1.0f / d);
  }
}

TEST(Weights, InDegreeSchemeSumsToOneForLT) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::LinearThreshold);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.in_weights(v);
    if (ws.empty()) continue;
    const double sum = std::accumulate(ws.begin(), ws.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(Weights, OutWeightsMirrorInWeights) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::IndependentCascade);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto vs = g.out().neighbors(u);
    const auto ws = g.out_weights(u);
    for (std::size_t j = 0; j < vs.size(); ++j) {
      EXPECT_FLOAT_EQ(ws[j], 1.0f / static_cast<float>(g.in_degree(vs[j])));
    }
  }
}

TEST(Weights, UniformConstantIC) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::IndependentCascade,
                 {.scheme = WeightScheme::UniformConstant, .value = 0.05f});
  for (const Weight w : g.all_in_weights()) EXPECT_FLOAT_EQ(w, 0.05f);
}

TEST(Weights, UniformConstantLTStaysFeasible) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::LinearThreshold,
                 {.scheme = WeightScheme::UniformConstant, .value = 0.8f});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.in_weights(v);
    const double sum = std::accumulate(ws.begin(), ws.end(), 0.0);
    EXPECT_LE(sum, 1.0 + 1e-4);
  }
}

TEST(Weights, RandomUniformICWithinCap) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::IndependentCascade,
                 {.scheme = WeightScheme::RandomUniform, .value = 0.2f, .seed = 5});
  for (const Weight w : g.all_in_weights()) {
    EXPECT_GE(w, 0.0f);
    EXPECT_LE(w, 0.2f);
  }
}

TEST(Weights, RandomUniformLTStaysFeasible) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::LinearThreshold,
                 {.scheme = WeightScheme::RandomUniform, .seed = 6});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.in_weights(v);
    const double sum = std::accumulate(ws.begin(), ws.end(), 0.0);
    EXPECT_LE(sum, 1.0 + 1e-4);
    for (const Weight w : ws) EXPECT_GT(w, 0.0f);
  }
}

TEST(Weights, RandomUniformDeterministicInSeed) {
  Graph a = test_graph();
  Graph b = test_graph();
  const WeightParams params{.scheme = WeightScheme::RandomUniform, .seed = 11};
  assign_weights(a, DiffusionModel::IndependentCascade, params);
  assign_weights(b, DiffusionModel::IndependentCascade, params);
  for (std::size_t i = 0; i < a.all_in_weights().size(); ++i) {
    EXPECT_EQ(a.all_in_weights()[i], b.all_in_weights()[i]);
  }
}

TEST(Weights, TrivalencyDrawsFromThreeLevels) {
  Graph g = test_graph();
  assign_weights(g, DiffusionModel::IndependentCascade,
                 {.scheme = WeightScheme::Trivalency, .seed = 3});
  for (const Weight w : g.all_in_weights()) {
    EXPECT_TRUE(w == 0.1f || w == 0.01f || w == 0.001f);
  }
}

TEST(Weights, TrivalencyRejectedForLT) {
  Graph g = test_graph();
  const WeightParams params{.scheme = WeightScheme::Trivalency};
  EXPECT_THROW(assign_weights(g, DiffusionModel::LinearThreshold, params),
               support::Error);
}

TEST(Weights, ModelAndSchemeNames) {
  EXPECT_STREQ(to_string(DiffusionModel::IndependentCascade), "IC");
  EXPECT_STREQ(to_string(DiffusionModel::LinearThreshold), "LT");
  EXPECT_STREQ(to_string(WeightScheme::InDegree), "in-degree");
}

// -- Out-weight mirror against the per-edge binary search -------------------

/// The mirror as a lower_bound of u in v's in-slice per out-edge (u, v): a
/// duplicated arc's every out-copy reads its first in-copy's weight.
std::vector<Weight> reference_out_weights(const Graph& g) {
  std::vector<Weight> out(g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto vs = g.out().neighbors(u);
    for (std::size_t j = 0; j < vs.size(); ++j) {
      const auto ins = g.in().neighbors(vs[j]);
      const auto it = std::lower_bound(ins.begin(), ins.end(), u);
      EXPECT_TRUE(it != ins.end() && *it == u);
      const auto local = static_cast<std::size_t>(it - ins.begin());
      out[g.out().offsets[u] + j] = g.in_weights(vs[j])[local];
    }
  }
  return out;
}

/// An un-normalized list: duplicate arcs (some repeated several times) and
/// self-loops left in.
EdgeList raw_edges_with_duplicates(std::uint64_t seed, VertexId n, std::size_t m) {
  support::RandomStream rng(seed, 1);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    if (!edges.empty() && rng.next_double() < 0.3) {
      edges.push_back(edges[rng.next_below(static_cast<std::uint32_t>(edges.size()))]);
    } else {
      edges.push_back(Edge{rng.next_below(n), rng.next_below(n)});
    }
  }
  return EdgeList(n, std::move(edges));
}

TEST(Weights, OutWeightSyncMatchesBinarySearchOnDuplicateArcs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const DiffusionModel model :
         {DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold}) {
      const VertexId n = seed % 2 == 0 ? 60 : 700;
      Graph g = Graph::from_edge_list(raw_edges_with_duplicates(seed, n, 6'000));
      assign_weights(g, model, {.scheme = WeightScheme::RandomUniform, .seed = seed});
      const std::vector<Weight> want = reference_out_weights(g);
      std::vector<Weight> got;
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        const auto ws = g.out_weights(u);
        got.insert(got.end(), ws.begin(), ws.end());
      }
      EXPECT_EQ(got, want) << "seed " << seed << " " << to_string(model);
    }
  }
}

TEST(Weights, OutWeightSyncRejectsDisagreeingAdjacency) {
  const EdgeList edges = raw_edges_with_duplicates(5, 50, 400);
  const Adjacency in = build_in_adjacency(edges);
  const Adjacency out = build_out_adjacency(edges);
  const auto sync = [&](Adjacency corrupted) {
    Graph g = Graph::from_adjacency(in, std::move(corrupted));
    assign_weights(g, DiffusionModel::IndependentCascade);
  };
  EXPECT_NO_THROW(sync(out));

  // One out-target replaced by another vertex.
  Adjacency wrong_target = out;
  wrong_target.targets[wrong_target.targets.size() / 2] += 1;
  EXPECT_THROW(sync(wrong_target), support::Error);

  // One arc dropped from the out-direction.
  std::vector<Edge> fewer = edges.edges();
  fewer.pop_back();
  EXPECT_THROW(sync(build_out_adjacency(EdgeList(edges.num_vertices(), fewer))),
               support::Error);

  // Arc counts agree, but one arc sits in another source's slice: the first
  // source runs past its slice, the second never fills its own.
  for (const bool to_last : {false, true}) {
    std::vector<Edge> moved = edges.edges();
    Edge& e = to_last ? moved.back() : moved.front();
    e.from = to_last ? 0 : edges.num_vertices() - 1;
    if (e.from == e.to) e.to = (e.to + 1) % edges.num_vertices();
    EXPECT_THROW(sync(build_out_adjacency(EdgeList(edges.num_vertices(), moved))),
                 support::Error);
  }

  // 1 -> 3 recorded as 2 -> 3 in the out-direction: every mirror slot
  // holds the right target (source 1 runs on into source 2's slot, which
  // holds 3 as well), so only the fill count tells them apart.
  Graph shifted = Graph::from_adjacency(
      build_in_adjacency(EdgeList(4, {Edge{0, 3}, Edge{1, 3}})),
      build_out_adjacency(EdgeList(4, {Edge{0, 3}, Edge{2, 3}})));
  EXPECT_THROW(assign_weights(shifted, DiffusionModel::IndependentCascade), support::Error);
}

}  // namespace
}  // namespace eim::graph
