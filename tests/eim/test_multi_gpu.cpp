#include "eim/eim/multi_gpu.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <span>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/registry.hpp"
#include "eim/imm/rrr_store.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;

Graph make_graph(DiffusionModel model = DiffusionModel::IndependentCascade) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 8;
  p.epsilon = 0.3;
  return p;
}

struct DevicePool {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  explicit DevicePool(std::uint32_t n, std::uint64_t mb = 256) {
    for (std::uint32_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(mb)));
      ptrs.push_back(owned.back().get());
    }
  }
};

TEST(MultiGpu, SingleDeviceMatchesRegularPipeline) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device solo(gpusim::make_benchmark_device(256));
  const EimResult single = run_eim(solo, g, DiffusionModel::IndependentCascade, params);

  DevicePool pool(1);
  const MultiGpuResult multi =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  EXPECT_EQ(multi.seeds, single.seeds);
  EXPECT_EQ(multi.num_sets, single.num_sets);
  EXPECT_EQ(multi.total_elements, single.total_elements);
}

class MultiGpuCounts : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MultiGpuCounts, SeedsIdenticalAcrossDeviceCounts) {
  // The headline property of the sharding scheme: any device count yields
  // the bit-identical result, because global sample ids key the streams.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool one(1);
  const auto reference =
      run_eim_multi(one.ptrs, g, DiffusionModel::IndependentCascade, params);

  DevicePool pool(GetParam());
  const auto sharded =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params);
  EXPECT_EQ(sharded.seeds, reference.seeds);
  EXPECT_EQ(sharded.num_sets, reference.num_sets);
  EXPECT_EQ(sharded.total_elements, reference.total_elements);
  EXPECT_DOUBLE_EQ(sharded.lower_bound, reference.lower_bound);
  EXPECT_EQ(sharded.num_devices, GetParam());
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiGpuCounts,
                         ::testing::Values(2u, 3u, 4u, 8u));

TEST(MultiGpu, MoreDevicesReduceSamplingTime) {
  const auto spec = *graph::find_dataset("WV");
  const Graph g = graph::build_dataset(spec, DiffusionModel::IndependentCascade);
  imm::ImmParams params;
  params.k = 20;
  params.epsilon = 0.1;  // enough theta for the split to matter

  DevicePool one(1, 512);
  DevicePool four(4, 512);
  const auto solo = run_eim_multi(one.ptrs, g, DiffusionModel::IndependentCascade, params);
  const auto quad = run_eim_multi(four.ptrs, g, DiffusionModel::IndependentCascade, params);
  EXPECT_EQ(solo.seeds, quad.seeds);
  EXPECT_LT(quad.kernel_seconds, solo.kernel_seconds);
  // Not free: communication shows up.
  EXPECT_GT(quad.communication_seconds, solo.communication_seconds);
}

TEST(MultiGpu, ShardsSplitMemoryFootprint) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  DevicePool one(1);
  DevicePool four(4);
  const auto solo = run_eim_multi(one.ptrs, g, DiffusionModel::IndependentCascade, params);
  const auto quad = run_eim_multi(four.ptrs, g, DiffusionModel::IndependentCascade, params);
  // Each shard's peak is well under the solo peak (R splits four ways; the
  // graph replica and queue pool are the fixed floor).
  EXPECT_LT(quad.peak_device_bytes, solo.peak_device_bytes);
}

TEST(MultiGpu, WorksUnderLtWithElimination) {
  const Graph g = make_graph(DiffusionModel::LinearThreshold);
  imm::ImmParams params = make_params();
  DevicePool pool(3);
  EimOptions options;
  options.eliminate_sources = true;
  const auto r =
      run_eim_multi(pool.ptrs, g, DiffusionModel::LinearThreshold, params, options);
  EXPECT_EQ(r.seeds.size(), params.k);
  EXPECT_GT(r.num_sets, 0u);
}

TEST(MultiGpu, RejectsEmptyDeviceList) {
  const Graph g = make_graph();
  EXPECT_THROW(
      (void)run_eim_multi({}, g, DiffusionModel::IndependentCascade, make_params()),
      support::Error);
}

TEST(MultiGpuFailover, DeviceLossMidSamplingKeepsSeedsBitIdentical) {
  // The headline resilience invariant (docs/RESILIENCE.md): killing a
  // device mid-sampling redistributes its shard to survivors, and because
  // random streams are keyed by sample index — not by device — the final
  // seed set is bit-identical to the fault-free run.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool clean(4);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  DevicePool pool(4);
  gpusim::FaultPlan plan;
  plan.device_loss_kernel_ordinal = 2;  // dies on its third sampling wave
  pool.ptrs[2]->set_fault_plan(plan);
  support::metrics::MetricsRegistry registry;
  EimOptions options;
  options.metrics = &registry;
  const MultiGpuResult failed =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);

  EXPECT_EQ(failed.seeds, reference.seeds);
  EXPECT_EQ(failed.num_sets, reference.num_sets);
  EXPECT_EQ(failed.total_elements, reference.total_elements);
  EXPECT_DOUBLE_EQ(failed.lower_bound, reference.lower_bound);

  ASSERT_EQ(failed.failed_devices.size(), 1u);
  EXPECT_EQ(failed.failed_devices[0], 2u);
  EXPECT_GT(failed.failover_transfer_bytes, 0u);
  EXPECT_TRUE(pool.ptrs[2]->lost());
  EXPECT_EQ(registry.counter("multi.failover_events").value(), 1u);
  EXPECT_EQ(registry.counter("multi.failover_transfer_bytes").value(),
            failed.failover_transfer_bytes);
  EXPECT_EQ(registry.counter("fault.device_lost").value(), 1u);

  // The fault-free run reports no failover at all.
  EXPECT_TRUE(reference.failed_devices.empty());
  EXPECT_EQ(reference.failover_transfer_bytes, 0u);
  EXPECT_EQ(reference.failover_regenerated_sets, 0u);
}

TEST(MultiGpuFailover, PrimaryLossPromotesASurvivor) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool clean(3);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  DevicePool pool(3);
  gpusim::FaultPlan plan;
  plan.device_loss_kernel_ordinal = 1;
  pool.ptrs[0]->set_fault_plan(plan);  // kill the primary itself
  const MultiGpuResult failed =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  EXPECT_EQ(failed.seeds, reference.seeds);
  EXPECT_EQ(failed.num_sets, reference.num_sets);
  ASSERT_EQ(failed.failed_devices.size(), 1u);
  EXPECT_EQ(failed.failed_devices[0], 0u);
}

TEST(MultiGpuFailover, RetryExhaustionRetiresTheDevice) {
  // A device that keeps faulting transiently (beyond the retry budget) is
  // decommissioned exactly like a lost one; the run still completes with
  // identical seeds.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool clean(2);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  DevicePool pool(2);
  gpusim::FaultPlan plan;
  plan.kernel_fault_ordinals = {1, 2, 3};  // consecutive: defeats 3 attempts
  pool.ptrs[1]->set_fault_plan(plan);
  const MultiGpuResult failed =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  EXPECT_EQ(failed.seeds, reference.seeds);
  ASSERT_EQ(failed.failed_devices.size(), 1u);
  EXPECT_EQ(failed.failed_devices[0], 1u);
  EXPECT_FALSE(pool.ptrs[1]->lost());  // retired, not dead: transient faults
}

TEST(MultiGpuFailover, DeviceLossAtOrdinalZeroKeepsSeeds) {
  // Edge regression: ordinal 0 kills the device on its very first wave,
  // before it commits anything — the respill is its whole batch.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool clean(3);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  DevicePool pool(3);
  gpusim::FaultPlan plan;
  plan.device_loss_kernel_ordinal = 0;
  pool.ptrs[1]->set_fault_plan(plan);
  const MultiGpuResult failed =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  EXPECT_EQ(failed.seeds, reference.seeds);
  EXPECT_EQ(failed.num_sets, reference.num_sets);
  ASSERT_EQ(failed.failed_devices.size(), 1u);
  EXPECT_EQ(failed.failed_devices[0], 1u);
}

TEST(MultiGpuFailover, DeviceLossAtFinalWaveOrdinalFiresAndOneBeyondDoesNot) {
  // Edge regression: a clean run leaves the victim at kernel ordinal K. A
  // loss keyed at K-1 must still fail over (the last wave dies); keyed at
  // K the plan never fires and no failover may be reported.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool clean(3);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);
  const std::uint64_t launches = clean.ptrs[1]->kernel_launch_ordinal();
  ASSERT_GT(launches, 0u);

  DevicePool at_last(3);
  gpusim::FaultPlan last_plan;
  last_plan.device_loss_kernel_ordinal = launches - 1;
  at_last.ptrs[1]->set_fault_plan(last_plan);
  const MultiGpuResult last =
      run_eim_multi(at_last.ptrs, g, DiffusionModel::IndependentCascade, params);
  EXPECT_EQ(last.seeds, reference.seeds);
  EXPECT_EQ(last.num_sets, reference.num_sets);
  ASSERT_EQ(last.failed_devices.size(), 1u);
  EXPECT_EQ(last.failed_devices[0], 1u);

  DevicePool beyond(3);
  gpusim::FaultPlan beyond_plan;
  beyond_plan.device_loss_kernel_ordinal = launches;
  beyond.ptrs[1]->set_fault_plan(beyond_plan);
  const MultiGpuResult never =
      run_eim_multi(beyond.ptrs, g, DiffusionModel::IndependentCascade, params);
  EXPECT_EQ(never.seeds, reference.seeds);
  EXPECT_TRUE(never.failed_devices.empty());
  EXPECT_FALSE(beyond.ptrs[1]->lost());
}

TEST(MultiGpuFailover, TransientStagingFaultIsRetriedOnEitherDevice) {
  // A single transient fault on the network upload is retried under the
  // run's policy on any device, not turned into an aborted run or a
  // failover.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  DevicePool clean(2);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  for (const std::uint32_t victim : {0u, 1u}) {
    DevicePool pool(2);
    gpusim::FaultPlan plan;
    plan.transfer_fault_ordinals = {0};  // the network CSC upload
    pool.ptrs[victim]->set_fault_plan(plan);
    const MultiGpuResult retried =
        run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params);
    EXPECT_EQ(retried.seeds, reference.seeds) << "victim " << victim;
    EXPECT_TRUE(retried.failed_devices.empty());
    EXPECT_EQ(pool.ptrs[victim]->fault_stats().transfer_faults, 1u);
  }
}

TEST(MultiGpuMemory, EveryShardSpillsToTheUnconstrainedSeeds) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  DevicePool clean(2);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  // Each shard holds about half the collection; budget each device a
  // quarter of its shard.
  DevicePool pool(2);
  EimOptions options;
  options.spill.policy = SpillPolicy::Spill;
  options.spill.device_budget_bytes = reference.rrr_bytes / 8;
  const MultiGpuResult spilled =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
  EXPECT_EQ(spilled.seeds, reference.seeds);
  EXPECT_EQ(spilled.num_sets, reference.num_sets);
  EXPECT_EQ(spilled.total_elements, reference.total_elements);
  EXPECT_GT(spilled.spilled_sets, 0u);
  EXPECT_FALSE(spilled.degraded);
  EXPECT_TRUE(spilled.failed_devices.empty());
}

TEST(MultiGpuMemory, LosingADeviceWhileItResamplesTornBlocksKeepsSeeds) {
  // Device 1 spills its shard to disk and reads torn blocks back, so past
  // its sampling waves it launches one resample kernel per set of a torn
  // block inside selections. Losing it at the first, a middle or the last
  // of those launches retires it; the survivors regenerate its sets and
  // the answer does not move. (Losses during sampling waves are swept by
  // the failover tests above.)
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  DevicePool clean(3);
  const MultiGpuResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  EimOptions options;
  options.spill.policy = SpillPolicy::Spill;
  options.spill.device_budget_bytes = reference.rrr_bytes / 12;
  options.spill.host_budget_bytes = 1;  // every block goes to disk
  options.spill.sets_per_block = 128;
  gpusim::FaultPlan torn;
  torn.spill_corrupt_ordinals = {0, 1};

  DevicePool intact(3);
  (void)run_eim_multi(intact.ptrs, g, DiffusionModel::IndependentCascade, params, options);
  const std::uint64_t sampling_launches = intact.ptrs[1]->kernel_launch_ordinal();

  DevicePool spilling(3);
  spilling.ptrs[1]->set_fault_plan(torn);
  const MultiGpuResult spilled =
      run_eim_multi(spilling.ptrs, g, DiffusionModel::IndependentCascade, params, options);
  EXPECT_EQ(spilled.seeds, reference.seeds);
  EXPECT_GT(spilled.spilled_sets, 0u);
  const std::uint64_t launches = spilling.ptrs[1]->kernel_launch_ordinal();
  ASSERT_GT(launches, sampling_launches);  // the torn blocks were resampled

  for (const std::uint64_t o :
       {sampling_launches, (sampling_launches + launches) / 2, launches - 1}) {
    DevicePool pool(3);
    gpusim::FaultPlan plan = torn;
    plan.device_loss_kernel_ordinal = o;
    pool.ptrs[1]->set_fault_plan(plan);
    const MultiGpuResult lost =
        run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
    EXPECT_EQ(lost.seeds, reference.seeds) << "loss at launch " << o;
    EXPECT_EQ(lost.num_sets, reference.num_sets) << "loss at launch " << o;
    EXPECT_EQ(lost.total_elements, reference.total_elements) << "loss at launch " << o;
    EXPECT_EQ(lost.failed_devices, std::vector<std::uint32_t>{1u}) << "loss at launch " << o;
  }
}

TEST(MultiGpuMemory, OomDegradeSelectsOverTheCommittedPrefix) {
  // Two 128 KB devices: collection growth runs out of memory, and Degrade
  // freezes theta at the smallest sample id not committed on any shard.
  // The seeds are the serial greedy over exactly that prefix.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  gpusim::DeviceSpec spec = gpusim::make_benchmark_device(1);
  spec.global_memory_bytes = 128 << 10;
  gpusim::Device d0(spec);
  gpusim::Device d1(spec);
  const std::string dir = ::testing::TempDir() + "eim_multi_degrade_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  EimOptions options;
  options.sampler_blocks = 16;
  options.checkpoint_dir = dir;

  EXPECT_THROW((void)run_eim_multi({&d0, &d1}, g, DiffusionModel::IndependentCascade,
                                   params, options),
               support::DeviceOutOfMemoryError);

  options.degrade_policy = DegradePolicy::Degrade;
  const MultiGpuResult degraded =
      run_eim_multi({&d0, &d1}, g, DiffusionModel::IndependentCascade, params, options);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GT(degraded.degrade_shortfall_bytes, 0u);
  EXPECT_GT(degraded.num_sets, 0u);
  ASSERT_EQ(degraded.seeds.size(), params.k);

  const CheckpointState published = load_checkpoint(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(published.lengths.size(), degraded.num_sets);
  imm::RrrStore store(g.num_vertices());
  std::size_t at = 0;
  for (const std::uint32_t len : published.lengths) {
    store.append(std::span<const graph::VertexId>(published.elements.data() + at, len));
    at += len;
  }
  EXPECT_EQ(degraded.seeds, imm::select_seeds_greedy(store, params.k).seeds);
}

TEST(MultiGpuFailover, LosingEveryDeviceThrows) {
  // No survivor to fail over to: the run must surface the documented
  // DeviceLostError (exit code 5), not an unclassified check failure.
  const Graph g = make_graph();
  DevicePool pool(2);
  gpusim::FaultPlan plan;
  plan.device_loss_kernel_ordinal = 0;
  pool.ptrs[0]->set_fault_plan(plan);
  pool.ptrs[1]->set_fault_plan(plan);
  try {
    (void)run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, make_params());
    FAIL() << "losing every device must throw";
  } catch (const support::DeviceLostError& e) {
    EXPECT_EQ(support::exit_code_for(e), support::kExitDeviceFault);
  }
}

}  // namespace
}  // namespace eim::eim_impl
