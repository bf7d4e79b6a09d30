// Memory-pressure resilience: the tiered RRR spill hierarchy (device →
// compressed host → disk) behind DeviceRrrCollection, its disk fault
// injection, and the CRC quarantine-and-resample recovery path
// (docs/RESILIENCE.md "Memory-pressure tiers").
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/eim/tiered_store.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"

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

EimResult run_reference(const Graph& g) {
  gpusim::Device device(gpusim::make_benchmark_device(256));
  return run_eim(device, g, DiffusionModel::IndependentCascade, make_params());
}

/// Spill configuration that forces every tier into play: the device budget
/// is a quarter of the unconstrained R footprint, blocks are small so
/// several exist, and the 1-byte host budget pushes every block to disk.
SpillOptions tight_spill(const EimResult& reference, bool to_disk) {
  SpillOptions spill;
  spill.policy = SpillPolicy::Spill;
  spill.device_budget_bytes = reference.rrr_bytes / 4;
  spill.sets_per_block = 256;
  if (to_disk) spill.host_budget_bytes = 1;
  return spill;
}

EimResult run_spill(const Graph& g, const SpillOptions& spill,
                    const gpusim::FaultPlan& plan = {},
                    support::metrics::MetricsRegistry* metrics = nullptr) {
  gpusim::Device device(gpusim::make_benchmark_device(256));
  device.set_fault_plan(plan);
  EimOptions options;
  options.spill = spill;
  options.metrics = metrics;
  return run_eim(device, g, DiffusionModel::IndependentCascade, make_params(),
                 options);
}

TEST(Spill, BudgetedRunMatchesUnconstrainedSeedsBitIdentically) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);

  support::metrics::MetricsRegistry registry;
  const EimResult spilled =
      run_spill(g, tight_spill(reference, /*to_disk=*/false), {}, &registry);

  EXPECT_EQ(spilled.seeds, reference.seeds);
  EXPECT_EQ(spilled.num_sets, reference.num_sets);
  EXPECT_EQ(spilled.estimated_spread, reference.estimated_spread);
  EXPECT_FALSE(spilled.degraded);
  EXPECT_EQ(spilled.degrade_shortfall_bytes, 0u);
  // Full theta under a quarter of the footprint means most sets left the
  // device, and the spill tax is on the modeled clock, not free.
  EXPECT_GT(spilled.spilled_sets, 0u);
  EXPECT_GT(spilled.spill_bytes_compressed, 0u);
  EXPECT_GT(spilled.device_seconds, reference.device_seconds);
  EXPECT_GT(registry.counter("spill.evictions").value(), 0u);
  EXPECT_GT(registry.counter("spill.evicted_sets").value(), 0u);
  EXPECT_GT(registry.counter("spill.fetches").value(), 0u);
  EXPECT_EQ(registry.gauge("spill.compressed_bytes").value(),
            spilled.spill_bytes_compressed);
}

TEST(Spill, HostBudgetPushesBlocksToDiskWithIdenticalSeeds) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);

  support::metrics::MetricsRegistry registry;
  const EimResult spilled =
      run_spill(g, tight_spill(reference, /*to_disk=*/true), {}, &registry);

  EXPECT_EQ(spilled.seeds, reference.seeds);
  EXPECT_FALSE(spilled.degraded);
  EXPECT_GT(registry.counter("spill.disk_writes").value(), 0u);
  EXPECT_GT(registry.counter("spill.disk_reads").value(), 0u);
  EXPECT_GT(registry.gauge("spill.disk_bytes").value(), 0u);
}

TEST(Spill, HostAllocOomBouncesAdmissionsToDisk) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);

  // Refuse the first eight T1 admissions: those blocks must reach disk
  // directly, and the run must not notice.
  gpusim::FaultPlan plan;
  plan.host_alloc_oom_ordinals = {0, 1, 2, 3, 4, 5, 6, 7};
  support::metrics::MetricsRegistry registry;
  const EimResult spilled =
      run_spill(g, tight_spill(reference, /*to_disk=*/false), plan, &registry);

  EXPECT_EQ(spilled.seeds, reference.seeds);
  EXPECT_FALSE(spilled.degraded);
  EXPECT_GT(registry.counter("spill.host_oom").value(), 0u);
  EXPECT_GT(registry.counter("spill.disk_writes").value(), 0u);
}

/// Count how many disk writes / reads a fault-free disk-tier run performs,
/// so the sweeps below can hit every ordinal.
void count_disk_io(const Graph& g, const EimResult& reference,
                   std::uint64_t& writes, std::uint64_t& reads) {
  support::metrics::MetricsRegistry registry;
  (void)run_spill(g, tight_spill(reference, /*to_disk=*/true), {}, &registry);
  writes = registry.counter("spill.disk_writes").value();
  reads = registry.counter("spill.disk_reads").value();
  ASSERT_GT(writes, 0u);
  ASSERT_GT(reads, 0u);
}

TEST(Spill, WriteFaultAtEveryOrdinalRetriesToIdenticalSeeds) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);
  std::uint64_t writes = 0, reads = 0;
  count_disk_io(g, reference, writes, reads);

  for (std::uint64_t o = 0; o <= writes; ++o) {
    gpusim::FaultPlan plan;
    plan.spill_write_fault_ordinals = {o};
    support::metrics::MetricsRegistry registry;
    const EimResult spilled =
        run_spill(g, tight_spill(reference, /*to_disk=*/true), plan, &registry);
    EXPECT_EQ(spilled.seeds, reference.seeds) << "write fault at ordinal " << o;
    EXPECT_FALSE(spilled.degraded);
    // Ordinals advance per attempt, so the clean run's ordinal o may land
    // past the last write when o == writes; any earlier hit must retry.
    if (o < writes) {
      EXPECT_GT(registry.counter("spill.io_retries").value(), 0u)
          << "write fault at ordinal " << o;
    }
  }
}

TEST(Spill, ReadFaultAtEveryOrdinalRetriesToIdenticalSeeds) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);
  std::uint64_t writes = 0, reads = 0;
  count_disk_io(g, reference, writes, reads);

  for (std::uint64_t o = 0; o <= reads; ++o) {
    gpusim::FaultPlan plan;
    plan.spill_read_fault_ordinals = {o};
    support::metrics::MetricsRegistry registry;
    const EimResult spilled =
        run_spill(g, tight_spill(reference, /*to_disk=*/true), plan, &registry);
    EXPECT_EQ(spilled.seeds, reference.seeds) << "read fault at ordinal " << o;
    EXPECT_FALSE(spilled.degraded);
    if (o < reads) {
      EXPECT_GT(registry.counter("spill.io_retries").value(), 0u)
          << "read fault at ordinal " << o;
    }
  }
}

TEST(Spill, ExhaustedWriteRetriesExitWithTheIoCode) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);

  // Three consecutive ordinals defeat the default 3-attempt retry budget.
  gpusim::FaultPlan plan;
  plan.spill_write_fault_ordinals = {0, 1, 2};
  try {
    (void)run_spill(g, tight_spill(reference, /*to_disk=*/true), plan);
    FAIL() << "expected IoError";
  } catch (const support::IoError& e) {
    EXPECT_EQ(support::exit_code_for(e), support::kExitIo);
  }
}

TEST(Spill, ExhaustedReadRetriesExitWithTheIoCode) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);

  gpusim::FaultPlan plan;
  plan.spill_read_fault_ordinals = {0, 1, 2};
  try {
    (void)run_spill(g, tight_spill(reference, /*to_disk=*/true), plan);
    FAIL() << "expected IoError";
  } catch (const support::IoError& e) {
    EXPECT_EQ(support::exit_code_for(e), support::kExitIo);
  }
}

TEST(Spill, CorruptBlockAtEveryReadOrdinalResamplesToIdenticalSeeds) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);
  std::uint64_t writes = 0, reads = 0;
  count_disk_io(g, reference, writes, reads);

  for (std::uint64_t o = 0; o < reads; ++o) {
    gpusim::FaultPlan plan;
    plan.spill_corrupt_ordinals = {o};
    support::metrics::MetricsRegistry registry;
    const EimResult spilled =
        run_spill(g, tight_spill(reference, /*to_disk=*/true), plan, &registry);
    EXPECT_EQ(spilled.seeds, reference.seeds) << "corruption at ordinal " << o;
    EXPECT_FALSE(spilled.degraded);
    EXPECT_EQ(registry.counter("spill.corrupt_blocks").value(), 1u)
        << "corruption at ordinal " << o;
    EXPECT_GT(registry.counter("spill.resampled_sets").value(), 0u)
        << "corruption at ordinal " << o;
  }
}

TEST(Spill, SpillThenDegradeHandlesAnImpossibleBudget) {
  // A budget smaller than any single set: spilling cannot make forward
  // progress, and the policy decides — degrade, never truncate silently.
  const Graph g = make_graph();
  SpillOptions spill;
  spill.policy = SpillPolicy::Spill;
  spill.device_budget_bytes = 8;

  gpusim::Device device(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.spill = spill;
  options.oom_policy = OomPolicy::Degrade;
  const EimResult result =
      run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.degrade_shortfall_bytes, 0u);
  EXPECT_EQ(result.seeds.size(), make_params().k);
}

TEST(Spill, PlainSpillPolicyThrowsOnAnImpossibleBudget) {
  const Graph g = make_graph();
  SpillOptions spill;
  spill.policy = SpillPolicy::Spill;
  spill.device_budget_bytes = 8;

  gpusim::Device device(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.spill = spill;
  EXPECT_THROW((void)run_eim(device, g, DiffusionModel::IndependentCascade,
                             make_params(), options),
               support::DeviceOutOfMemoryError);
}

TEST(Spill, GenuinePoolOomSpillsInsteadOfFailing) {
  // No byte budget: spill only engages when the modeled pool actually runs
  // out — the run that used to degrade or die now completes at full theta.
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);

  // Large enough for the unspillable per-set metadata at full theta, small
  // enough that the R element array cannot fit — so the OOM lands in R
  // growth, the one place eviction can free memory.
  gpusim::DeviceSpec spec = gpusim::make_benchmark_device(1);
  spec.global_memory_bytes = 208 << 10;

  {
    gpusim::Device no_spill(spec);
    EimOptions options;
    options.sampler_blocks = 16;
    ASSERT_THROW((void)run_eim(no_spill, g, DiffusionModel::IndependentCascade,
                               make_params(), options),
                 support::DeviceOutOfMemoryError);
  }

  gpusim::Device device(spec);
  EimOptions options;
  options.sampler_blocks = 16;
  options.spill.policy = SpillPolicy::Spill;
  const EimResult spilled =
      run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);

  EXPECT_EQ(spilled.seeds, reference.seeds);
  EXPECT_EQ(spilled.num_sets, reference.num_sets);
  EXPECT_FALSE(spilled.degraded);
  EXPECT_GT(spilled.spilled_sets, 0u);
}

TEST(Spill, CheckpointedSpillRunRestoresUnderTheSameBudget) {
  const Graph g = make_graph();
  const EimResult reference = run_reference(g);
  const std::string dir =
      ::testing::TempDir() + "spill_ckpt_" + std::to_string(::getpid());

  // Run to completion with checkpoints on: every round boundary exports the
  // collection, streaming spilled sets back up through the staging pool.
  {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    EimOptions options;
    options.spill = tight_spill(reference, /*to_disk=*/true);
    options.checkpoint_dir = dir;
    const EimResult run =
        run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);
    ASSERT_EQ(run.seeds, reference.seeds);
  }

  // Resume from the final snapshot under the same budget: restore must spill
  // the committed prefix downward instead of overflowing the clamp.
  {
    const CheckpointState state = load_checkpoint(dir);
    gpusim::Device device(gpusim::make_benchmark_device(256));
    EimOptions options;
    options.spill = tight_spill(reference, /*to_disk=*/true);
    options.resume = &state;
    const EimResult resumed =
        run_eim(device, g, DiffusionModel::IndependentCascade, make_params(), options);
    EXPECT_EQ(resumed.seeds, reference.seeds);
    EXPECT_FALSE(resumed.degraded);
  }
  std::filesystem::remove_all(dir);
}

// Direct store-level checks: bit rot on the disk tier itself.

TEST(TieredStore, DiskBitFlipWithoutHookIsFatal) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredStoreOptions opts;
  opts.host_budget_bytes = 1;  // every block lands on disk
  opts.sets_per_block = 4;
  TieredRrrStore store(device, opts);

  const std::vector<std::uint64_t> ids = {0, 1};
  const std::vector<std::uint32_t> lens = {3, 2};
  const std::vector<VertexId> values = {1, 5, 9, 2, 4};
  store.spill(ids, lens, values, 64);
  ASSERT_GT(store.disk_bytes(), 0u);

  // Flip one byte in the only block file.
  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x40));
  }

  std::vector<VertexId> out(3);
  EXPECT_THROW(store.fetch(0, out), support::IoError);
  EXPECT_EQ(store.stats().corrupt_blocks, 0u);  // no hook: nothing quarantined
}

TEST(TieredStore, DiskBitFlipWithHookQuarantinesAndRecovers) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredStoreOptions opts;
  opts.host_budget_bytes = 1;
  opts.sets_per_block = 4;
  TieredRrrStore store(device, opts);

  const std::vector<std::uint64_t> ids = {0, 1};
  const std::vector<std::uint32_t> lens = {3, 2};
  const std::vector<VertexId> values = {1, 5, 9, 2, 4};
  store.set_resample_hook([&](std::uint64_t id, std::vector<VertexId>& out) {
    // Deterministic regeneration stand-in: id 0 -> {1,5,9}, id 1 -> {2,4}.
    out = id == 0 ? std::vector<VertexId>{1, 5, 9} : std::vector<VertexId>{2, 4};
  });
  store.spill(ids, lens, values, 64);

  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x40));
  }

  std::vector<VertexId> a(3), b(2);
  store.fetch(0, a);
  store.fetch(1, b);
  EXPECT_EQ(a, (std::vector<VertexId>{1, 5, 9}));
  EXPECT_EQ(b, (std::vector<VertexId>{2, 4}));
  EXPECT_EQ(store.stats().corrupt_blocks, 1u);
  EXPECT_EQ(store.stats().resampled_sets, 2u);
}

TEST(TieredStore, IndexTakesSparseOutOfOrderSetIds) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredRrrStore store(device, TieredStoreOptions{});
  const std::vector<std::uint64_t> ids = {7, 3};
  const std::vector<std::uint32_t> lens = {2, 1};
  const std::vector<VertexId> values = {1, 4, 9};
  store.spill(ids, lens, values, 64);

  for (const std::uint64_t id : {0u, 2u, 4u, 6u, 8u, 1000u}) {
    EXPECT_FALSE(store.contains(id)) << "set " << id;
  }
  std::vector<VertexId> a(2), b(1);
  store.fetch(7, a);
  store.fetch(3, b);
  EXPECT_EQ(a, (std::vector<VertexId>{1, 4}));
  EXPECT_EQ(b, (std::vector<VertexId>{9}));
}

TEST(TieredStore, ProfileTimesEveryStage) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredStoreOptions opts;
  opts.host_budget_bytes = 1;  // every block goes through the disk tier
  TieredRrrStore store(device, opts);
  support::profiler::WallProfile profile;
  store.attach_profile(&profile);

  const std::vector<std::uint64_t> ids = {0, 1};
  const std::vector<std::uint32_t> lens = {3, 2};
  const std::vector<VertexId> values = {1, 5, 9, 2, 4};
  store.spill(ids, lens, values, 64);
  std::vector<VertexId> out(3);
  store.fetch(0, out);

  for (const char* stage :
       {"spill.encode", "spill.disk_write", "spill.disk_read", "spill.decode"}) {
    EXPECT_EQ(profile.timer(stage).entries(), 1u) << stage;
  }
}

}  // namespace
}  // namespace eim::eim_impl
