// DegradePolicy::Degrade and transient-fault retry behavior of the single-device
// pipeline (docs/RESILIENCE.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <span>
#include <string>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/imm/rrr_store.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;

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

/// A device small enough that RRR-collection growth cannot complete, but
/// large enough for the fixed floor (graph replica + sampler pool).
gpusim::Device make_tiny_device() {
  gpusim::DeviceSpec spec = gpusim::make_benchmark_device(1);
  spec.global_memory_bytes = 160 << 10;  // 160 KB
  return gpusim::Device(spec);
}

EimOptions small_pool_options() {
  EimOptions options;
  options.sampler_blocks = 16;  // shrink the per-block queue pool
  return options;
}

TEST(Degrade, ThrowPolicyPropagatesTheOom) {
  const Graph g = make_graph();
  gpusim::Device device = make_tiny_device();
  EimOptions options = small_pool_options();
  options.degrade_policy = DegradePolicy::Throw;
  EXPECT_THROW(
      (void)run_eim(device, g, DiffusionModel::IndependentCascade, make_params(),
                    options),
      support::DeviceOutOfMemoryError);
}

TEST(Degrade, DegradePolicyReturnsBestEffortSeeds) {
  const Graph g = make_graph();
  gpusim::Device device = make_tiny_device();
  support::metrics::MetricsRegistry registry;
  EimOptions options = small_pool_options();
  options.degrade_policy = DegradePolicy::Degrade;
  options.metrics = &registry;

  const EimResult result =
      run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);

  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.degrade_shortfall_bytes, 0u);
  // Best-effort, but still a full seed set over the sets that fit.
  EXPECT_EQ(result.seeds.size(), make_params().k);
  EXPECT_GT(result.num_sets, 0u);
  EXPECT_EQ(registry.counter("degrade.activations").value(), 1u);
  EXPECT_EQ(registry.gauge("degrade.shortfall_bytes").value(),
            result.degrade_shortfall_bytes);
}

TEST(Degrade, FaultFreeRunsReportNotDegraded) {
  const Graph g = make_graph();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  const EimResult result =
      run_eim(device, g, DiffusionModel::IndependentCascade, make_params());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.degrade_shortfall_bytes, 0u);
}

TEST(Degrade, ScriptedAllocOomAlsoDegrades) {
  // An injected OOM (fault plan, not genuine exhaustion) takes the same
  // degrade path: the run must not distinguish why memory "ran out".
  const Graph g = make_graph();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  gpusim::FaultPlan plan;
  plan.alloc_oom_ordinals = {6};  // past staging, inside collection growth
  device.set_fault_plan(plan);

  EimOptions options;
  options.degrade_policy = DegradePolicy::Degrade;
  const EimResult result =
      run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.seeds.size(), make_params().k);
  EXPECT_EQ(device.fault_stats().alloc_ooms, 1u);
}

TEST(Degrade, LateOomSelectsOverThePublishedSetsOnly) {
  // Regression: an OOM after the first wave publishes the contiguous prefix
  // of the sets committed so far. Sets committed past that prefix must not
  // count toward the greedy — the seeds must be exactly the serial greedy
  // over the published sets, which the final checkpoint holds. (Here the
  // spill budget is smaller than any set, so the OOM lands on wave 2.)
  const Graph g = make_graph();
  const std::string dir = ::testing::TempDir() + "eim_degrade_late_oom_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  gpusim::Device device(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.spill.policy = SpillPolicy::Spill;
  options.spill.device_budget_bytes = 8;
  options.degrade_policy = DegradePolicy::Degrade;
  options.checkpoint_dir = dir;
  const EimResult result =
      run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);
  ASSERT_TRUE(result.degraded);

  const CheckpointState published = load_checkpoint(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(published.lengths.size(), result.num_sets);
  imm::RrrStore store(g.num_vertices());
  std::size_t at = 0;
  for (const std::uint32_t len : published.lengths) {
    store.append(std::span<const graph::VertexId>(published.elements.data() + at, len));
    at += len;
  }
  EXPECT_EQ(result.seeds, imm::select_seeds_greedy(store, make_params().k).seeds);
}

TEST(Resilience, TransientKernelFaultRetriesToIdenticalSeeds) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device clean(gpusim::make_benchmark_device(256));
  const EimResult reference =
      run_eim(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Device faulty(gpusim::make_benchmark_device(256));
  gpusim::FaultPlan plan;
  plan.kernel_fault_ordinals = {0};  // first eim::sample wave fails once
  faulty.set_fault_plan(plan);
  support::metrics::MetricsRegistry registry;
  EimOptions options;
  options.metrics = &registry;
  const EimResult retried =
      run_eim(faulty, g, DiffusionModel::IndependentCascade, params, options);

  EXPECT_EQ(retried.seeds, reference.seeds);
  EXPECT_EQ(retried.num_sets, reference.num_sets);
  EXPECT_FALSE(retried.degraded);
  EXPECT_EQ(faulty.fault_stats().kernel_faults, 1u);
  EXPECT_EQ(registry.counter("retry.attempts").value(), 1u);
  EXPECT_EQ(registry.counter("fault.kernel_faults_injected").value(), 1u);
  // The recovery time is on the modeled ledger, not free.
  EXPECT_GT(faulty.timeline().backoff_seconds(), 0.0);
  EXPECT_GT(retried.device_seconds, reference.device_seconds);
}

TEST(Resilience, TransientTransferFaultRetriesToIdenticalSeeds) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device clean(gpusim::make_benchmark_device(256));
  const EimResult reference =
      run_eim(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Device faulty(gpusim::make_benchmark_device(256));
  gpusim::FaultPlan plan;
  plan.transfer_fault_ordinals = {0};  // network CSC upload fails once
  faulty.set_fault_plan(plan);
  const EimResult retried =
      run_eim(faulty, g, DiffusionModel::IndependentCascade, params);

  EXPECT_EQ(retried.seeds, reference.seeds);
  EXPECT_EQ(faulty.fault_stats().transfer_faults, 1u);
}

TEST(Resilience, ExhaustedRetriesPropagateTheFault) {
  const Graph g = make_graph();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  gpusim::FaultPlan plan;
  plan.kernel_fault_ordinals = {0, 1, 2};  // consecutive: defeats 3 attempts
  device.set_fault_plan(plan);
  EXPECT_THROW(
      (void)run_eim(device, g, DiffusionModel::IndependentCascade, make_params()),
      support::DeviceFaultError);
}

}  // namespace
}  // namespace eim::eim_impl
