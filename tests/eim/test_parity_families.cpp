// Wide parity sweep: the eIM kernel must equal the serial reference on
// every structural extreme — hubs, cycles, cliques, bipartite layers,
// degenerate paths — under both models and both elimination settings.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/graph/generators.hpp"
#include "eim/imm/imm.hpp"
#include "eim/imm/rrr_store.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

struct FamilyCase {
  const char* name;
  std::function<graph::EdgeList()> build;
  DiffusionModel model;
  bool eliminate;
  std::uint64_t sets = 300;
};

class FamilyParity : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(FamilyParity, KernelMatchesSerialReference) {
  const FamilyCase& family = GetParam();
  Graph g = Graph::from_edge_list(family.build());
  graph::assign_weights(g, family.model);

  imm::ImmParams params;
  params.k = 3;
  params.eliminate_sources = family.eliminate;

  imm::RrrStore store(g.num_vertices());
  (void)imm::sample_to_target(g, family.model, params, store, family.sets);

  gpusim::Device device(gpusim::make_benchmark_device(256));
  DeviceRrrCollection collection(device, g.num_vertices(), true);
  EimOptions options;
  options.eliminate_sources = family.eliminate;
  options.sampler_blocks = 8;
  EimSampler sampler(device, g, family.model, params, options);
  sampler.sample_to(collection, family.sets);

  ASSERT_EQ(collection.num_sets(), store.num_sets());
  ASSERT_EQ(collection.total_elements(), store.total_elements());
  for (std::uint64_t i = 0; i < store.num_sets(); ++i) {
    const auto expect = store.set(i);
    ASSERT_EQ(collection.set_length(i), expect.size()) << family.name << " set " << i;
    for (std::uint32_t j = 0; j < expect.size(); ++j) {
      ASSERT_EQ(collection.element(i, j), expect[j]) << family.name << " set " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyParity,
    ::testing::Values(
        FamilyCase{"star_ic", [] { return graph::star_graph(64); },
                   DiffusionModel::IndependentCascade, false},
        FamilyCase{"star_ic_elim", [] { return graph::star_graph(64); },
                   DiffusionModel::IndependentCascade, true},
        FamilyCase{"cycle_lt", [] { return graph::cycle_graph(40); },
                   DiffusionModel::LinearThreshold, false},
        FamilyCase{"cycle_ic_elim", [] { return graph::cycle_graph(40); },
                   DiffusionModel::IndependentCascade, true},
        FamilyCase{"complete_ic", [] { return graph::complete_graph(24); },
                   DiffusionModel::IndependentCascade, false},
        FamilyCase{"complete_lt", [] { return graph::complete_graph(24); },
                   DiffusionModel::LinearThreshold, true},
        // In-degree 199 spans seven warp chunks, so the walk's running sum
        // must round exactly like the serial left-to-right sum; a rounding
        // split shows in only a few of thousands of sets.
        FamilyCase{"complete_lt_wide", [] { return graph::complete_graph(200); },
                   DiffusionModel::LinearThreshold, false, 2000},
        FamilyCase{"bipartite_ic", [] { return graph::bipartite_graph(12, 20); },
                   DiffusionModel::IndependentCascade, true},
        FamilyCase{"path_lt", [] { return graph::path_graph(50); },
                   DiffusionModel::LinearThreshold, false},
        FamilyCase{"er_ic", [] { return graph::erdos_renyi(200, 900, 3); },
                   DiffusionModel::IndependentCascade, true},
        FamilyCase{"er_lt", [] { return graph::erdos_renyi(200, 900, 3); },
                   DiffusionModel::LinearThreshold, true},
        FamilyCase{"ws_ic", [] { return graph::watts_strogatz(128, 4, 0.2, 5); },
                   DiffusionModel::IndependentCascade, false},
        FamilyCase{"rmat_lt",
                   [] {
                     return graph::rmat({.scale = 8, .num_edges = 1200}, 9);
                   },
                   DiffusionModel::LinearThreshold, true}),
    [](const ::testing::TestParamInfo<FamilyCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace eim::eim_impl
