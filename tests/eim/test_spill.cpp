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
  options.degrade_policy = DegradePolicy::Degrade;
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
  support::metrics::MetricsRegistry registry;
  store.attach_metrics(&registry);

  const std::vector<std::uint32_t> lens = {3, 2};
  const std::vector<VertexId> values = {1, 5, 9, 2, 4};
  store.spill(lens, values, 64);
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
  // No hook: nothing quarantined.
  EXPECT_EQ(registry.counter("spill.corrupt_blocks").value(), 0u);
}

TEST(TieredStore, DiskBitFlipWithHookQuarantinesAndRecovers) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredStoreOptions opts;
  opts.host_budget_bytes = 1;
  opts.sets_per_block = 4;
  TieredRrrStore store(device, opts);
  support::metrics::MetricsRegistry registry;
  store.attach_metrics(&registry);

  const std::vector<std::uint32_t> lens = {3, 2};
  const std::vector<VertexId> values = {1, 5, 9, 2, 4};
  store.set_resample_hook([&](std::uint64_t id, std::vector<VertexId>& out) {
    // Deterministic regeneration stand-in: id 0 -> {1,5,9}, id 1 -> {2,4}.
    out = id == 0 ? std::vector<VertexId>{1, 5, 9} : std::vector<VertexId>{2, 4};
  });
  store.spill(lens, values, 64);

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
  EXPECT_EQ(registry.counter("spill.corrupt_blocks").value(), 1u);
  EXPECT_EQ(registry.counter("spill.resampled_sets").value(), 2u);
}

TEST(TieredStore, FetchFindsEverySlotAcrossBlocksAndSpillCalls) {
  // Three spill calls of uneven size against 3-set blocks leave blocks of
  // 3, 1, 1, 3 and 2 sets. One staging slot makes every block change
  // re-stage, so each fetch must find its block from the slot alone.
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredStoreOptions opts;
  opts.sets_per_block = 3;
  opts.staging_blocks = 1;
  TieredRrrStore store(device, opts);

  std::vector<std::vector<VertexId>> sets;
  for (const std::size_t batch : {4u, 1u, 5u}) {
    std::vector<std::uint32_t> lens;
    std::vector<VertexId> values;
    for (std::size_t j = 0; j < batch; ++j) {
      const auto slot = static_cast<VertexId>(sets.size());
      std::vector<VertexId> set;
      for (VertexId v = 0; v <= slot % 3; ++v) set.push_back(slot * 10 + v);
      lens.push_back(static_cast<std::uint32_t>(set.size()));
      values.insert(values.end(), set.begin(), set.end());
      sets.push_back(std::move(set));
    }
    store.spill(lens, values, 64);
  }
  ASSERT_EQ(store.spilled_sets(), sets.size());

  // Back to front, then front to back: both orders cross every block edge.
  for (std::size_t i = sets.size(); i-- > 0;) {
    std::vector<VertexId> out(sets[i].size());
    store.fetch(i, out);
    EXPECT_EQ(out, sets[i]) << "slot " << i;
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::vector<VertexId> out(sets[i].size());
    store.fetch(i, out);
    EXPECT_EQ(out, sets[i]) << "slot " << i;
  }
}

TEST(TieredStore, FetchPastTheSpilledPrefixIsRefused) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredRrrStore store(device, TieredStoreOptions{});
  std::vector<VertexId> out(1);
  EXPECT_THROW(store.fetch(0, out), support::Error);  // nothing spilled yet

  store.spill({}, {}, 0);  // an empty batch appends no slot
  EXPECT_EQ(store.spilled_sets(), 0u);
  EXPECT_THROW(store.fetch(0, out), support::Error);

  const std::vector<std::uint32_t> lens = {1, 1};
  const std::vector<VertexId> values = {3, 8};
  store.spill(lens, values, 64);
  EXPECT_EQ(store.spilled_sets(), 2u);
  store.fetch(1, out);
  EXPECT_EQ(out, (std::vector<VertexId>{8}));
  EXPECT_THROW(store.fetch(2, out), support::Error);
}

TEST(TieredStore, MetricsTimeEveryStage) {
  gpusim::Device device(gpusim::make_benchmark_device(64));
  TieredStoreOptions opts;
  opts.host_budget_bytes = 1;  // every block goes through the disk tier
  TieredRrrStore store(device, opts);
  support::metrics::MetricsRegistry registry;
  store.attach_metrics(&registry);

  const std::vector<std::uint32_t> lens = {3, 2};
  const std::vector<VertexId> values = {1, 5, 9, 2, 4};
  store.spill(lens, values, 64);
  std::vector<VertexId> out(3);
  store.fetch(0, out);

  for (const char* stage :
       {"spill.encode", "spill.disk_write", "spill.disk_read", "spill.decode"}) {
    EXPECT_EQ(registry.wall_timer(stage).count(), 1u) << stage;
  }
}

}  // namespace
}  // namespace eim::eim_impl
