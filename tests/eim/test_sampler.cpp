#include "eim/eim/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eim/graph/generators.hpp"
#include "eim/imm/imm.hpp"
#include "eim/imm/rrr_store.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

Graph make_graph(DiffusionModel model, VertexId n = 400) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(n, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params(bool eliminate = false) {
  imm::ImmParams p;
  p.k = 5;
  p.epsilon = 0.3;
  p.eliminate_sources = eliminate;
  return p;
}

EimOptions make_options(bool eliminate = false) {
  EimOptions o;
  o.eliminate_sources = eliminate;
  o.sampler_blocks = 16;  // small for tests
  return o;
}

TEST(EimSampler, ProducesTargetSets) {
  gpusim::Device device(gpusim::make_benchmark_device(128));
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                     make_options());
  sampler.sample_to(col, 500);
  EXPECT_EQ(col.num_sets(), 500u);
  EXPECT_GT(col.total_elements(), 500u);  // BA graphs cascade beyond sources
}

TEST(EimSampler, SampleToIsIdempotent) {
  gpusim::Device device(gpusim::make_benchmark_device(128));
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                     make_options());
  sampler.sample_to(col, 200);
  const auto elements = col.total_elements();
  sampler.sample_to(col, 200);
  sampler.sample_to(col, 100);
  EXPECT_EQ(col.num_sets(), 200u);
  EXPECT_EQ(col.total_elements(), elements);
}

// The central parity property: the simulated kernel must generate the exact
// multiset of RRR sets the serial reference generates, per sample index,
// for both models and both source-elimination settings.
struct ParityCase {
  DiffusionModel model;
  bool eliminate;
};

class SamplerParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(SamplerParity, MatchesSerialReferenceExactly) {
  const auto [model, eliminate] = GetParam();
  const Graph g = make_graph(model);
  const imm::ImmParams params = make_params(eliminate);

  // Serial reference.
  imm::RrrStore store(g.num_vertices());
  (void)imm::sample_to_target(g, model, params, store, 400);

  // Simulated kernel.
  gpusim::Device device(gpusim::make_benchmark_device(128));
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, model, params, make_options(eliminate));
  sampler.sample_to(col, 400);

  ASSERT_EQ(col.num_sets(), store.num_sets());
  ASSERT_EQ(col.total_elements(), store.total_elements());
  for (std::uint64_t i = 0; i < store.num_sets(); ++i) {
    const auto expect = store.set(i);
    ASSERT_EQ(col.set_length(i), expect.size()) << "set " << i;
    for (std::uint32_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(col.element(i, j), expect[j]) << "set " << i << " elem " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndElimination, SamplerParity,
    ::testing::Values(ParityCase{DiffusionModel::IndependentCascade, false},
                      ParityCase{DiffusionModel::IndependentCascade, true},
                      ParityCase{DiffusionModel::LinearThreshold, false},
                      ParityCase{DiffusionModel::LinearThreshold, true}));

std::vector<VertexId> set_members(const DeviceRrrCollection& col, std::uint64_t i) {
  std::vector<VertexId> set(col.set_length(i));
  for (std::uint32_t j = 0; j < set.size(); ++j) set[j] = col.element(i, j);
  return set;
}

// A block body leases its visited stamps from a pool sized to the host's
// concurrency, so which array and which epoch a sample runs on depends on
// the block count and on thread scheduling. The collection must not: every
// set is a pure function of (rng_seed, global sample id).
struct PooledStampCase {
  DiffusionModel model;
  DrawMode mode;
};

class PooledStamps : public ::testing::TestWithParam<PooledStampCase> {};

TEST_P(PooledStamps, CollectionIdenticalAcrossBlockCounts) {
  const auto [model, mode] = GetParam();
  const Graph g = make_graph(model);
  const imm::ImmParams params = make_params(true);

  std::vector<std::vector<VertexId>> reference;
  for (const std::uint32_t blocks : {1u, 16u, 0u /* device default */}) {
    gpusim::Device device(gpusim::make_benchmark_device(128));
    DeviceRrrCollection col(device, g.num_vertices(), true);
    EimOptions options = make_options(true);
    options.sampler_blocks = blocks;
    options.draw_mode = mode;
    EimSampler sampler(device, g, model, params, options);
    // Two back-to-back calls: the second reuses arrays (and carries their
    // epochs) from the first.
    sampler.sample_to(col, 150);
    sampler.sample_to(col, 400);
    ASSERT_EQ(col.num_sets(), 400u);

    std::vector<std::vector<VertexId>> sets;
    for (std::uint64_t i = 0; i < col.num_sets(); ++i) sets.push_back(set_members(col, i));
    // A resample after the waves leases a used array and must rebuild
    // exactly what was committed.
    std::vector<VertexId> regenerated;
    for (const std::uint64_t id : {0u, 149u, 150u, 399u}) {
      sampler.resample_set(id, regenerated);
      EXPECT_EQ(regenerated, sets[id]) << "set " << id << ", " << blocks << " blocks";
    }
    if (reference.empty()) {
      reference = std::move(sets);
    } else {
      EXPECT_EQ(sets, reference) << blocks << " blocks";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDrawModes, PooledStamps,
    ::testing::Values(PooledStampCase{DiffusionModel::IndependentCascade, DrawMode::Exact},
                      PooledStampCase{DiffusionModel::IndependentCascade, DrawMode::Skip},
                      PooledStampCase{DiffusionModel::LinearThreshold, DrawMode::Exact},
                      PooledStampCase{DiffusionModel::LinearThreshold, DrawMode::Skip}));

TEST(EimSampler, ZeroWeightEdgesNeverActivate) {
  // Regression for the `<=` comparison bug: all weights 0.0, so every RRR
  // set is the singleton {source} and total elements == committed sets.
  Graph g = Graph::from_edge_list(graph::complete_graph(16));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  std::fill(g.mutable_in_weights().begin(), g.mutable_in_weights().end(), 0.0f);
  g.sync_out_weights_from_in();

  gpusim::Device device(gpusim::make_benchmark_device(128));
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                     make_options());
  sampler.sample_to(col, 2000);
  EXPECT_EQ(col.num_sets(), 2000u);
  EXPECT_EQ(col.total_elements(), col.num_sets());
}

TEST(EimSampler, ZeroWeightEdgeSurvivesAnExactZeroDraw) {
  // The sweep only trips the old `<=` bug on a draw of exactly 0.0
  // (probability 2^-24). Global sample 31329045 of rng_seed 0 picks source
  // 1 and then draws 0.0f (exhaustive scan over the RRRS streams); verify
  // that precondition so an RNG change fails loudly, then sample across it.
  constexpr std::uint64_t kZeroDrawSample = 31329045;
  support::RandomStream probe(
      0, support::derive_stream(imm::kSampleStreamTag, kZeroDrawSample, 0));
  ASSERT_EQ(probe.next_below(2), 1u) << "zero-draw sample stale";
  ASSERT_EQ(probe.next_float(), 0.0f) << "zero-draw sample stale";

  graph::EdgeList el(2);
  el.add_edge(0, 1);
  Graph g = Graph::from_edge_list(el);
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  g.mutable_in_weights()[0] = 0.0f;
  g.sync_out_weights_from_in();

  gpusim::Device device(gpusim::make_benchmark_device(128));
  DeviceRrrCollection col(device, g.num_vertices(), true);
  imm::ImmParams params = make_params();
  params.rng_seed = 0;
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, params,
                     make_options());
  sampler.sample_assigned(col, std::vector<std::uint64_t>{kZeroDrawSample});
  ASSERT_EQ(col.num_sets(), 1u);
  // With `<=` the zero draw would activate the 0->1 edge and the set would
  // be {0, 1}.
  ASSERT_EQ(col.set_length(0), 1u);
  EXPECT_EQ(col.element(0, 0), 1u);
}

TEST(EimSampler, EmptyGraphIsRejected) {
  // next_below(0) returns 0, so sampling an empty graph used to read
  // stamp[0] of an empty array; it must throw cleanly instead.
  const Graph g = Graph::from_edge_list(graph::EdgeList(0));
  gpusim::Device device(gpusim::make_benchmark_device(128));
  DeviceRrrCollection col(device, 0, true);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                     make_options());
  EXPECT_THROW(sampler.sample_to(col, 1), support::Error);
  EXPECT_THROW(
      sampler.sample_assigned(col, std::vector<std::uint64_t>{0}),
      support::Error);
  // The empty-list entry points stay no-ops.
  sampler.sample_assigned(col, {});
  EXPECT_EQ(col.num_sets(), 0u);
}

TEST(EimSampler, QueueDepthObservedOncePerCommittedSample) {
  // Force capacity-retried samples: every cascade covers all 256 vertices,
  // so the first wave's average-based reserve is far too small and most
  // samples re-run in later waves. The queue-depth histogram must still
  // count each *committed* sample exactly once (it used to be observed per
  // wave attempt, double-counting retries).
  Graph g = Graph::from_edge_list(graph::complete_graph(256));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  std::fill(g.mutable_in_weights().begin(), g.mutable_in_weights().end(), 1.0f);
  g.sync_out_weights_from_in();

  gpusim::Device device(gpusim::make_benchmark_device(128));
  support::metrics::MetricsRegistry registry;
  DeviceRrrCollection col(device, g.num_vertices(), true);
  col.attach_metrics(&registry);
  EimOptions options = make_options();
  options.metrics = &registry;
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                     options);
  constexpr std::uint64_t kSamples = 64;
  sampler.sample_to(col, kSamples);

  ASSERT_GT(registry.counter("sampler.waves").value(), 1u)
      << "test graph no longer forces capacity retries";
  ASSERT_GT(registry.counter("sampler.commit_retries").value(), 0u);
  const auto& depth = registry.histogram("sampler.queue_depth");
  EXPECT_EQ(depth.count(), kSamples);
  // Every set spans the whole graph, so the recorded depths do too.
  EXPECT_EQ(depth.sum(), kSamples * 256u);
}

TEST(EimSampler, EliminationRemovesSourcesAndCountsDiscards) {
  // Skewed R-MAT: plenty of zero-in-degree sources -> singleton discards.
  Graph g = Graph::from_edge_list(graph::rmat(
      {.scale = 9, .num_edges = 1500, .a = 0.7, .b = 0.15, .c = 0.1, .d = 0.05}, 5));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);

  gpusim::Device device(gpusim::make_benchmark_device(128));
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(true),
                     make_options(true));
  sampler.sample_to(col, 300);
  EXPECT_GT(sampler.singletons_discarded(), 0u);
}

TEST(EimSampler, ChargesKernelTime) {
  gpusim::Device device(gpusim::make_benchmark_device(128));
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                     make_options());
  sampler.sample_to(col, 300);
  EXPECT_GT(device.timeline().kernel_seconds(), 0.0);
}

TEST(EimSampler, MoreSetsCostMoreModeledTime) {
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  auto run = [&](std::uint64_t sets) {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    DeviceRrrCollection col(device, g.num_vertices(), true);
    EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                       make_options());
    sampler.sample_to(col, sets);
    return device.timeline().kernel_seconds();
  };
  EXPECT_LT(run(200), run(4000));
}

TEST(EimSampler, LtSetsAreWalks) {
  const Graph g = make_graph(DiffusionModel::LinearThreshold);
  gpusim::Device device(gpusim::make_benchmark_device(128));
  DeviceRrrCollection col(device, g.num_vertices(), true);
  EimSampler sampler(device, g, DiffusionModel::LinearThreshold, make_params(),
                     make_options());
  sampler.sample_to(col, 400);
  // Walk sets on a 400-vertex BA graph stay small and duplicate-free.
  for (std::uint64_t i = 0; i < col.num_sets(); ++i) {
    std::vector<VertexId> set;
    for (std::uint32_t j = 0; j < col.set_length(i); ++j) set.push_back(col.element(i, j));
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
  }
}

TEST(EimSampler, AtomicAddLtVariantSameSetsHigherCost) {
  const Graph g = make_graph(DiffusionModel::LinearThreshold, 600);
  const imm::ImmParams params = make_params();

  auto run = [&](LtActivationMethod method) {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    DeviceRrrCollection col(device, g.num_vertices(), true);
    EimOptions opts = make_options();
    opts.lt_activation = method;
    EimSampler sampler(device, g, DiffusionModel::LinearThreshold, params, opts);
    sampler.sample_to(col, 1000);
    std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < col.num_sets(); ++i) {
      for (std::uint32_t j = 0; j < col.set_length(i); ++j) {
        checksum = checksum * 31 + col.element(i, j);
      }
    }
    return std::pair{checksum, device.timeline().kernel_seconds()};
  };

  const auto [scan_sum, scan_time] = run(LtActivationMethod::PrefixScan);
  const auto [atomic_sum, atomic_time] = run(LtActivationMethod::AtomicAdd);
  EXPECT_EQ(scan_sum, atomic_sum);      // identical sets
  EXPECT_GT(atomic_time, scan_time);    // §3.3: serialization costs more
}

}  // namespace
}  // namespace eim::eim_impl
