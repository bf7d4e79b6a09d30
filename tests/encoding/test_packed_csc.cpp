#include "eim/encoding/packed_csc.hpp"

#include <gtest/gtest.h>

#include "eim/graph/generators.hpp"
#include "eim/graph/registry.hpp"
#include "eim/graph/weights.hpp"
#include "eim/support/error.hpp"

namespace eim::encoding {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

Graph weighted_graph() {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 4, 0.3, 21));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  return g;
}

TEST(PackedCsc, PreservesAdjacencyExactly) {
  const Graph g = weighted_graph();
  const PackedCsc packed(g);
  ASSERT_EQ(packed.num_vertices(), g.num_vertices());
  ASSERT_EQ(packed.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(packed.in_degree(v), g.in_degree(v));
    const auto expect = g.in().neighbors(v);
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(packed.in_neighbor(v, j), expect[j]);
    }
  }
}

TEST(PackedCsc, PreservesWeightsExactly) {
  const Graph g = weighted_graph();
  const PackedCsc packed(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.in_weights(v);
    for (std::size_t j = 0; j < ws.size(); ++j) {
      EXPECT_FLOAT_EQ(packed.in_weight(v, j), ws[j]);
    }
  }
}

TEST(PackedCsc, SavesMemoryVersusRawCsc) {
  const Graph g = weighted_graph();
  const PackedCsc packed(g);
  EXPECT_LT(packed.packed_bytes(), packed.raw_bytes());
  EXPECT_GT(packed.saved_fraction(), 0.0);
  EXPECT_LT(packed.saved_fraction(), 1.0);
}

TEST(PackedCsc, ImplicitWeightsMatchInDegreeScheme) {
  const Graph g = weighted_graph();
  const PackedCsc packed(g, WeightStorage::ImplicitInDegree);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.in_weights(v);
    for (std::size_t j = 0; j < ws.size(); ++j) {
      EXPECT_FLOAT_EQ(packed.in_weight(v, j), ws[j]);
    }
  }
  // No weight array at all -> strictly smaller than the raw-float mode.
  EXPECT_LT(packed.packed_bytes(), PackedCsc(g).packed_bytes());
}

TEST(PackedCsc, ImplicitWeightsRejectedForNonInDegreeWeights) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(100, 3, 0.0, 4));
  graph::assign_weights(g, DiffusionModel::IndependentCascade,
                        {.scheme = graph::WeightScheme::UniformConstant, .value = 0.1f});
  EXPECT_THROW(PackedCsc(g, WeightStorage::ImplicitInDegree), support::Error);
}

TEST(PackedCsc, SmallerGraphsSaveLargerFraction) {
  // The Fig. 4 trend: savings shrink as the network grows because the
  // neighbor bit-width approaches 32.
  Graph small = graph::build_dataset(*graph::find_dataset("WV"),
                                     DiffusionModel::IndependentCascade);
  Graph large = graph::build_dataset(*graph::find_dataset("WB"),
                                     DiffusionModel::IndependentCascade);
  const PackedCsc packed_small(small);
  const PackedCsc packed_large(large);
  EXPECT_GT(packed_small.saved_fraction(), packed_large.saved_fraction() - 0.05);
  EXPECT_GT(packed_large.saved_fraction(), 0.10);  // paper: stays above 14%
}

TEST(PackedCsc, PackedBytesForMatchesBuiltArrays) {
  // The pipelines charge packed_bytes_for(g) to stage the network without
  // building it, so it must equal what the built arrays occupy on every
  // shape: empty and edgeless graphs, isolated vertices, and sizes whose
  // offset and neighbor widths straddle 32-bit container boundaries.
  const auto expect_match = [](const Graph& g, const char* what) {
    EXPECT_EQ(PackedCsc::packed_bytes_for(g), PackedCsc(g).packed_bytes()) << what;
  };
  const auto weighted = [](const graph::EdgeList& el) {
    Graph g = Graph::from_edge_list(el);
    graph::assign_weights(g, DiffusionModel::IndependentCascade);
    return g;
  };
  expect_match(weighted(graph::EdgeList(0)), "n=0");
  expect_match(weighted(graph::EdgeList(1)), "n=1");
  expect_match(weighted(graph::EdgeList(7)), "m=0");

  graph::EdgeList isolated(50);  // vertices 3..49 touch no edge
  isolated.add_edge(0, 1);
  isolated.add_edge(2, 1);
  expect_match(weighted(isolated), "isolated vertices");

  // n-1 and m at and around powers of two: widths 5/6 and 6/7 bits, where
  // (count * width) lands just below, on, and just past a word boundary.
  for (const VertexId n : {31u, 32u, 33u, 63u, 64u, 65u, 97u}) {
    for (const std::uint32_t extra : {0u, 1u, 2u, 31u}) {
      graph::EdgeList el(n);
      for (VertexId v = 1; v < n; ++v) el.add_edge(v - 1, v);  // a path
      for (std::uint32_t e = 0; e < extra; ++e) {
        el.add_edge(e % n, (e * 7 + 3) % n);
      }
      el.normalize();  // drops the sweep's occasional self-loop or duplicate
      expect_match(weighted(el), "boundary sweep");
    }
  }

  expect_match(graph::build_dataset(*graph::find_dataset("SD"),
                                    DiffusionModel::IndependentCascade),
               "SD stand-in");
}

TEST(PackedCsc, HandlesVerticesWithNoInEdges) {
  Graph g = Graph::from_edge_list(graph::star_graph(10));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  const PackedCsc packed(g);
  EXPECT_EQ(packed.in_degree(0), 0u);  // hub has no in-edges
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_EQ(packed.in_degree(v), 1u);
    EXPECT_EQ(packed.in_neighbor(v, 0), 0u);
  }
}

}  // namespace
}  // namespace eim::encoding
