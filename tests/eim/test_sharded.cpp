// Golden pins for the sharded driver behind run_eim, run_eim_multi and
// run_eim_cluster. Every figure below is the modeled output of the
// pre-unification drivers, recorded bit-exactly: seeds and collection
// shape, the failover/reshard tallies, and the kernel/transfer/
// communication/device seconds. No committed bench baseline covers the
// multi-GPU cost model, so this test is its gate — any change to the
// shared shard/failover/restore/select core that moves a modeled second
// fails here. The single-device cells were recorded from the standalone
// run_eim pipeline before it became a one-device fleet.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/multi_node.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

Graph make_graph() {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 8;
  p.epsilon = 0.3;
  return p;
}

MultiGpuResult run_multi(const Graph& g, std::uint32_t num_devices,
                         const gpusim::FaultPlan* plan = nullptr,
                         std::uint32_t victim = 0) {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  for (std::uint32_t i = 0; i < num_devices; ++i) {
    owned.push_back(std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(256)));
    ptrs.push_back(owned.back().get());
  }
  if (plan != nullptr) ptrs[victim]->set_fault_plan(*plan);
  return run_eim_multi(ptrs, g, DiffusionModel::IndependentCascade, make_params());
}

MultiNodeResult run_cluster(const Graph& g, const gpusim::ClusterFaultPlan& plan = {}) {
  gpusim::ClusterSpec spec;
  spec.num_nodes = 2;
  spec.node.num_devices = 2;
  spec.node.device = gpusim::make_benchmark_device(256);
  gpusim::Cluster cluster(spec);
  cluster.set_fault_plan(plan);
  return run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, make_params());
}

/// One cell's pinned figures. Doubles are hexfloat literals so the pin is
/// bit-exact, not a decimal approximation.
struct Pinned {
  std::uint64_t num_sets;
  std::uint64_t total_elements;
  std::uint64_t singletons_discarded;
  double kernel_seconds;
  double transfer_seconds;
  double communication_seconds;
  double device_seconds;
};

const std::vector<VertexId> kSeeds = {4, 5, 3, 16, 108, 476, 1, 177};

void expect_pinned(const EimResult& r, const std::vector<VertexId>& seeds,
                   double communication_seconds, const Pinned& pin) {
  EXPECT_EQ(r.seeds, seeds);
  EXPECT_EQ(r.num_sets, pin.num_sets);
  EXPECT_EQ(r.total_elements, pin.total_elements);
  EXPECT_EQ(r.singletons_discarded, pin.singletons_discarded);
  EXPECT_EQ(r.kernel_seconds, pin.kernel_seconds);
  EXPECT_EQ(r.transfer_seconds, pin.transfer_seconds);
  EXPECT_EQ(communication_seconds, pin.communication_seconds);
  EXPECT_EQ(r.device_seconds, pin.device_seconds);
}

void expect_pinned(const EimResult& r, double communication_seconds, const Pinned& pin) {
  expect_pinned(r, kSeeds, communication_seconds, pin);
}

/// A single-device run on a fresh device of `spec`.
EimResult run_single(
    const Graph& g, const EimOptions& options = {},
    DiffusionModel model = DiffusionModel::IndependentCascade,
    const gpusim::DeviceSpec& spec = gpusim::make_benchmark_device(256)) {
  gpusim::Device device(spec);
  return run_eim(device, g, model, make_params(), options);
}

TEST(ShardedDriver, ModeledChargesPinned) {
  const Graph g = make_graph();

  const MultiGpuResult d2 = run_multi(g, 2);
  expect_pinned(d2, d2.communication_seconds,
                {7358, 34104, 3393, 0x1.89bdb44067e9p-11, 0x1.700373271415fp-11,
                 0x1.64f3b9647ef45p-11, 0x1.1a306410c1eaep-9});
  EXPECT_TRUE(d2.failed_devices.empty());

  const MultiGpuResult d4 = run_multi(g, 4);
  expect_pinned(d4, d4.communication_seconds,
                {7358, 34104, 3393, 0x1.383af0c91910ep-11, 0x1.0e7ab97c047f4p-9,
                 0x1.0bb6cb0b5f36dp-9, 0x1.b8498fe52daeap-9});

  // 2 nodes x 2 devices stripes the same four shards as D = 4, so the
  // kernel makespan matches; only the interconnect charges differ.
  const MultiNodeResult c22 = run_cluster(g);
  expect_pinned(c22, c22.communication_seconds,
                {7358, 34104, 3393, 0x1.383af0c91910ep-11, 0x1.61f73852a4342p-16,
                 0x1.7fb346c55d813p-12, 0x1.b9125b64f44fdp-10});
  EXPECT_EQ(c22.kernel_seconds, d4.kernel_seconds);
  EXPECT_TRUE(c22.failed_nodes.empty());

  // Device 2 of 4 dies on its third sampling wave.
  gpusim::FaultPlan loss;
  loss.device_loss_kernel_ordinal = 2;
  const MultiGpuResult lost = run_multi(g, 4, &loss, 2);
  expect_pinned(lost, lost.communication_seconds,
                {7358, 34104, 3393, 0x1.7155d23f0a4a1p-11, 0x1.c6902837372e9p-10,
                 0x1.be30a7bd9eb0dp-10, 0x1.b59485cd5d582p-9});
  EXPECT_EQ(lost.failed_devices, std::vector<std::uint32_t>{2u});
  EXPECT_EQ(lost.failover_regenerated_sets, 632u);
  EXPECT_EQ(lost.failover_transfer_bytes, 10112u);

  // Node 1 of the 2 x 2 cluster dies at collective ordinal 2.
  gpusim::ClusterFaultPlan kill;
  kill.node_losses.push_back({1, 2, -1.0});
  const MultiNodeResult killed = run_cluster(g, kill);
  expect_pinned(killed, killed.communication_seconds,
                {7358, 34104, 3393, 0x1.7761e4ee429a9p-11, 0x1.61f73852a4342p-16,
                 0x1.5d5e662305cfap-16, 0x1.98656049da0ecp-10});
  EXPECT_EQ(killed.failed_nodes, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(killed.reshard_samples, 632u);
  EXPECT_EQ(killed.collective_retries, 0u);

  // One device: the same collection, priced by §3.5's per-pick kernels and
  // no interconnect.
  const EimResult solo = run_single(g);
  expect_pinned(solo, 0.0,
                {7358, 34104, 3393, 0x1.4160cd4c6d034p-10, 0x1.61f73852a4342p-16, 0.0,
                 0x1.fe68de9b7d6acp-10});
  EXPECT_EQ(solo.rrr_bytes, 133328u);

  // LT with fast-draw (alias-table) sampling.
  Graph lt = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(lt, DiffusionModel::LinearThreshold);
  EimOptions skip;
  skip.draw_mode = DrawMode::Skip;
  expect_pinned(run_single(lt, skip, DiffusionModel::LinearThreshold),
                {4, 5, 16, 3, 108, 177, 350, 27}, 0.0,
                {8635, 32011, 1237, 0x1.a0026f7e632fep-11, 0x1.61f73852a4342p-16, 0.0,
                 0x1.8d09490e41ff6p-10});

  // Spill at a quarter of the unconstrained footprint.
  EimOptions quarter;
  quarter.spill.policy = SpillPolicy::Spill;
  quarter.spill.device_budget_bytes = solo.rrr_bytes / 4;
  const EimResult spilled = run_single(g, quarter);
  expect_pinned(spilled, 0.0,
                {7358, 34104, 3393, 0x1.4160cd4c6d034p-10, 0x1.bc71b5cfdb1f1p-14, 0.0,
                 0x1.0a540e8b98459p-9});
  EXPECT_EQ(spilled.spilled_sets, 5057u);
  EXPECT_EQ(spilled.peak_device_bytes, 552254u);

  // OOM degrade on a 160 KB device with a 16-block sampler pool.
  gpusim::DeviceSpec tiny = gpusim::make_benchmark_device(1);
  tiny.global_memory_bytes = 160 << 10;
  EimOptions degrade;
  degrade.sampler_blocks = 16;
  degrade.degrade_policy = DegradePolicy::Degrade;
  const EimResult degraded =
      run_single(g, degrade, DiffusionModel::IndependentCascade, tiny);
  expect_pinned(degraded, {4, 108, 16, 5, 350, 3, 177, 1}, 0.0,
                {2529, 11539, 1130, 0x1.219df7d7d4df7p-9, 0x1.61f73852a4342p-16, 0.0,
                 0x1.58cfac1eb2ae1p-9});
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.degrade_shortfall_bytes, 19332u);

  // One transient fault on the first sampling wave, retried.
  gpusim::Device faulty(gpusim::make_benchmark_device(256));
  gpusim::FaultPlan kernel_fault;
  kernel_fault.kernel_fault_ordinals = {0};
  faulty.set_fault_plan(kernel_fault);
  expect_pinned(run_eim(faulty, g, DiffusionModel::IndependentCascade, make_params()),
                0.0,
                {7358, 34104, 3393, 0x1.42b058a4fb39cp-10, 0x1.61f73852a4342p-16, 0.0,
                 0x1.0cf7a66f93f1cp-9});
}

}  // namespace
}  // namespace eim::eim_impl
