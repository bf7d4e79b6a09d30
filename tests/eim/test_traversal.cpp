// Golden pins for the device traversal kernels: the eIM sampler's IC BFS
// and LT walk in every draw policy, and the gIM baseline's shared-memory
// queue variant of the same kernels. Every figure below is the modeled
// output recorded bit-exactly before the kernels were unified, so any
// change to what a traversal charges per dequeue, enqueue, chunk or commit
// fails here — not only a change to the sets it produces.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "eim/baselines/gim.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

constexpr std::uint64_t kSets = 4000;

Graph make_graph(DiffusionModel model) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 8;
  return p;
}

/// One cell's pinned figures. Doubles are hexfloat literals so the pin is
/// bit-exact, not a decimal approximation.
struct Pinned {
  std::uint64_t num_sets;
  std::uint64_t total_elements;
  double kernel_seconds;
  double device_seconds;
};

void expect_sampler_pinned(DiffusionModel model, EimOptions options, const Pinned& pin) {
  const Graph g = make_graph(model);
  gpusim::Device device(gpusim::make_benchmark_device(256));
  support::metrics::MetricsRegistry registry;
  options.metrics = &registry;
  DeviceRrrCollection collection(device, g.num_vertices(), options.log_encode);
  EimSampler sampler(device, g, model, make_params(), options);
  sampler.sample_to(collection, kSets);

  // Fixture: every cell fits its reservations on the first admit, so the
  // pins price one pass of each traversal with no rejected sample re-run.
  // (Rejections are decided in slot order, so a re-run would repeat
  // bit-for-bit as well.)
  ASSERT_EQ(registry.counter("sampler.commit_retries").value(), 0u);
  EXPECT_EQ(collection.num_sets(), pin.num_sets);
  EXPECT_EQ(collection.total_elements(), pin.total_elements);
  EXPECT_EQ(device.timeline().kernel_seconds(), pin.kernel_seconds);
  EXPECT_EQ(device.timeline().total_seconds(), pin.device_seconds);
}

void expect_gim_pinned(DiffusionModel model, const Pinned& pin,
                       std::uint64_t device_mallocs) {
  const Graph g = make_graph(model);
  gpusim::Device device(gpusim::make_benchmark_device(256));
  baselines::GimConfig config;
  // Fixture: the heap-pressure term is off, so the pins isolate what the
  // shared traversal charges from the allocator model layered on top. (The
  // term is priced in slot order, so it would repeat bit-for-bit as well.)
  config.heap_pressure_scale = std::numeric_limits<std::uint64_t>::max();
  // A four-entry shared queue makes most traversals spill.
  config.shared_queue_entries = 4;
  const EimResult r = baselines::run_gim(device, g, model, make_params(), config);

  EXPECT_EQ(r.num_sets, pin.num_sets);
  EXPECT_EQ(r.total_elements, pin.total_elements);
  EXPECT_EQ(r.kernel_seconds, pin.kernel_seconds);
  EXPECT_EQ(r.device_seconds, pin.device_seconds);
  EXPECT_EQ(r.device_mallocs, device_mallocs);
}

TEST(TraversalKernels, ModeledChargesPinned) {
  EimOptions options;

  // IC BFS, one draw per unvisited in-neighbor.
  expect_sampler_pinned(DiffusionModel::IndependentCascade, options,
                        {kSets, 18436, 0x1.8a1422f2c713ep-12, 0x1.2de59d25d496ap-11});

  // IC BFS, geometric skip-ahead over the DrawPlan's row kinds.
  options.draw_mode = DrawMode::Skip;
  expect_sampler_pinned(DiffusionModel::IndependentCascade, options,
                        {kSets, 18784, 0x1.150968b3d870dp-12, 0x1.e6c0800cba8a4p-12});

  // LT walk, alias-table picks.
  expect_sampler_pinned(DiffusionModel::LinearThreshold, options,
                        {kSets, 14877, 0x1.6e869109d2c4ap-13, 0x1.88fa5fddcb7bcp-12});

  // LT walk, warp prefix scan.
  options.draw_mode = DrawMode::Exact;
  expect_sampler_pinned(DiffusionModel::LinearThreshold, options,
                        {kSets, 14877, 0x1.83225ecf992fep-13, 0x1.934846c0aeb16p-12});

  // LT walk, §3.3's serialized shared-sum ablation over a plain R array.
  options.lt_activation = LtActivationMethod::AtomicAdd;
  options.log_encode = false;
  expect_sampler_pinned(DiffusionModel::LinearThreshold, options,
                        {kSets, 14877, 0x1.e1c9e7dc1e51cp-13, 0x1.c29c0b46f1424p-12});

  // gIM: shared-memory queue with a malloc'd global spill.
  expect_gim_pinned(DiffusionModel::IndependentCascade,
                    {285536, 1184016, 0x1.6d9117ba1b962p-6, 0x1.7ff2ec3d932c8p-6},
                    360121);
  expect_gim_pinned(DiffusionModel::LinearThreshold,
                    {263398, 1105374, 0x1.37a4c81114982p-6, 0x1.4a069c948c2e8p-6},
                    353613);
}

// A Mixed DrawPlan row (in-edges of unequal weight) falls back to one draw
// per unvisited in-neighbor, in stream order. On a graph whose every row is
// Mixed, skip mode therefore consumes each sample's stream exactly like
// exact mode and must commit the identical collection.
TEST(TraversalKernels, SkipMixedRowsDrawLikeExact) {
  Graph g = Graph::from_edge_list(graph::complete_graph(24));
  graph::assign_weights(g, DiffusionModel::IndependentCascade,
                        {.scheme = graph::WeightScheme::RandomUniform, .value = 0.1f});

  const auto sample = [&](DrawMode mode) {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    support::metrics::MetricsRegistry registry;
    EimOptions options;
    options.draw_mode = mode;
    options.metrics = &registry;
    DeviceRrrCollection collection(device, g.num_vertices(), true);
    EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                       options);
    sampler.sample_to(collection, 2000);
    if (mode == DrawMode::Skip) {
      // Every row took the per-edge fallback: no draw was skipped.
      EXPECT_EQ(registry.counter("sampler.draws_skipped").value(), 0u);
    }
    std::vector<std::vector<VertexId>> sets(collection.num_sets());
    for (std::uint64_t i = 0; i < sets.size(); ++i) {
      for (std::uint32_t j = 0; j < collection.set_length(i); ++j) {
        sets[i].push_back(collection.element(i, j));
      }
    }
    return sets;
  };
  EXPECT_EQ(sample(DrawMode::Skip), sample(DrawMode::Exact));
}

}  // namespace
}  // namespace eim::eim_impl
