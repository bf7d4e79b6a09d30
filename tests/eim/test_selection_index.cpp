// SelectionIndex (eim/seed_selector.hpp): the host index a run extends by
// the sets committed since its last select call. Extending in steps must be
// indistinguishable from one build over the whole collection — the same
// seeds, coverage and sequence of pricer calls — and a throw mid-extend
// must leave the indexed prefix as it was. The drivers built on it must
// read each committed element once per fresh run, keep their modeled
// seconds through a failover inside a selection, and resume to the answer
// of an uninterrupted run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/multi_node.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/graph/generators.hpp"
#include "eim/imm/rrr_store.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

/// An in-memory collection. Sets flagged spilled log every read of them;
/// `fail_at` makes the read of that set throw once.
class VectorSource final : public SetSource {
 public:
  std::vector<std::vector<VertexId>> sets;
  std::vector<bool> spilled_flags;
  mutable std::vector<std::uint64_t> spilled_reads;
  mutable std::uint64_t fail_at = UINT64_MAX;

  std::uint32_t length(std::uint64_t i) const override {
    return static_cast<std::uint32_t>(sets[i].size());
  }
  bool spilled(std::uint64_t i) const override { return spilled_flags[i]; }
  bool any_spilled() const override {
    for (const bool s : spilled_flags) {
      if (s) return true;
    }
    return false;
  }
  void decode(std::uint64_t i, std::span<VertexId> out) const override {
    if (i == fail_at) {
      fail_at = UINT64_MAX;
      throw std::runtime_error("injected read failure");
    }
    if (spilled_flags[i]) spilled_reads.push_back(i);
    std::copy(sets[i].begin(), sets[i].end(), out.begin());
  }
};

/// Records every pricer call in order: start's lengths, covers, picks.
class RecordingPricer final : public PickPricer {
 public:
  std::vector<std::uint32_t> lengths;
  std::vector<std::int64_t> calls;  ///< set id per cover, -1 per charge_pick

  void start(std::span<const std::uint32_t> l) override {
    lengths.assign(l.begin(), l.end());
  }
  void cover(std::uint64_t set_id) override {
    calls.push_back(static_cast<std::int64_t>(set_id));
  }
  void charge_pick() override { calls.push_back(-1); }
};

VectorSource random_collection(std::mt19937_64& rng, VertexId n, std::uint64_t num_sets) {
  VectorSource source;
  std::uniform_int_distribution<VertexId> vertex(0, n - 1);
  std::uniform_int_distribution<int> size(0, 6);
  for (std::uint64_t i = 0; i < num_sets; ++i) {
    std::vector<VertexId> set;
    for (int j = size(rng); j > 0; --j) set.push_back(vertex(rng));
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    source.sets.push_back(std::move(set));
  }
  source.spilled_flags.assign(num_sets, false);
  return source;
}

struct Selected {
  imm::SelectionResult result;
  RecordingPricer pricer;
};

Selected select(const SelectionIndex& index, std::uint32_t k, ArgMaxMode mode) {
  Selected out;
  out.result = greedy_select(index, k, out.pricer, mode);
  return out;
}

void expect_same_selection(const Selected& a, const Selected& b) {
  EXPECT_EQ(a.result.seeds, b.result.seeds);
  EXPECT_EQ(a.result.covered_sets, b.result.covered_sets);
  EXPECT_EQ(a.result.coverage_fraction, b.result.coverage_fraction);
  EXPECT_EQ(a.pricer.lengths, b.pricer.lengths);
  EXPECT_EQ(a.pricer.calls, b.pricer.calls);
}

TEST(SelectionIndex, StepwiseExtendMatchesOneShotBuild) {
  std::mt19937_64 rng(20261018);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<VertexId>(std::uniform_int_distribution<int>(8, 80)(rng));
    const std::uint64_t num_sets = std::uniform_int_distribution<std::uint64_t>(0, 400)(rng);
    const VectorSource source = random_collection(rng, n, num_sets);
    const std::uint32_t k = std::min<std::uint32_t>(n, 6);

    SelectionIndex whole(n);
    support::metrics::MetricsRegistry one_shot;
    whole.extend(source, num_sets, &one_shot, nullptr);

    // 1-5 steps, with repeated targets standing for select calls that saw
    // no new sets.
    const int steps = std::uniform_int_distribution<int>(1, 5)(rng);
    std::vector<std::uint64_t> targets;
    for (int s = 0; s + 1 < steps; ++s) {
      targets.push_back(std::uniform_int_distribution<std::uint64_t>(0, num_sets)(rng));
    }
    targets.push_back(num_sets);
    std::sort(targets.begin(), targets.end());
    SelectionIndex stepwise(n);
    support::metrics::MetricsRegistry stepped;
    std::size_t non_empty = 0;
    std::uint64_t at = 0;
    for (const std::uint64_t target : targets) {
      stepwise.extend(source, target, &stepped, nullptr);
      non_empty += target > at ? 1 : 0;
      at = target;
      ASSERT_EQ(stepwise.num_sets(), target);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(stepwise.segments().size(), non_empty);
    EXPECT_EQ(stepped.counter("selector.elements_decoded").value(),
              one_shot.counter("selector.elements_decoded").value());
    for (const ArgMaxMode mode : {ArgMaxMode::kLazyHeap, ArgMaxMode::kLinearReference}) {
      expect_same_selection(select(stepwise, k, mode), select(whole, k, mode));
    }
  }
}

TEST(SelectionIndex, LargeSegmentsMatchTheSerialGreedy) {
  // Both segments exceed 65536 elements, so on a multi-core host each is
  // decoded and indexed by several pool threads.
  std::mt19937_64 rng(5);
  VectorSource source;
  std::uniform_int_distribution<VertexId> vertex(0, 1999);
  imm::RrrStore store(2000);
  for (int i = 0; i < 30000; ++i) {
    std::vector<VertexId> set;
    for (int j = 0; j < 12; ++j) set.push_back(vertex(rng));
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    store.append(set);
    source.sets.push_back(std::move(set));
  }
  source.spilled_flags.assign(source.sets.size(), false);

  SelectionIndex index(2000);
  index.extend(source, 12000, nullptr, nullptr);
  index.extend(source, 30000, nullptr, nullptr);
  ASSERT_EQ(index.segments().size(), 2u);
  ASSERT_GE(index.segments()[0].flat.size(), 65536u);
  RecordingPricer pricer;
  const imm::SelectionResult got = greedy_select(index, 20, pricer);
  const imm::SelectionResult want = imm::select_seeds_greedy(store, 20);
  EXPECT_EQ(got.seeds, want.seeds);
  EXPECT_EQ(got.covered_sets, want.covered_sets);
}

TEST(SelectionIndex, ReStreamsTheSpilledPrefixInAscendingOrder) {
  std::mt19937_64 rng(7);
  VectorSource source = random_collection(rng, 30, 40);
  for (const std::uint64_t i : {2u, 5u, 11u, 25u, 31u}) source.spilled_flags[i] = true;

  SelectionIndex index(30);
  index.extend(source, 20, nullptr, nullptr);
  EXPECT_EQ(source.spilled_reads, (std::vector<std::uint64_t>{2, 5, 11}));
  source.spilled_reads.clear();
  // Each later call re-reads the indexed prefix's spilled sets, then
  // decodes the new ones in order — the order a full re-read had.
  index.extend(source, 40, nullptr, nullptr);
  EXPECT_EQ(source.spilled_reads, (std::vector<std::uint64_t>{2, 5, 11, 25, 31}));
  source.spilled_reads.clear();
  index.extend(source, 40, nullptr, nullptr);
  EXPECT_EQ(source.spilled_reads, (std::vector<std::uint64_t>{2, 5, 11, 25, 31}));
  EXPECT_EQ(index.segments().size(), 2u);
}

TEST(SelectionIndex, FailedExtendLeavesTheIndexedPrefix) {
  std::mt19937_64 rng(11);
  VectorSource source = random_collection(rng, 40, 300);
  source.spilled_flags[50] = true;
  source.spilled_flags[250] = true;
  SelectionIndex whole(40);
  whole.extend(source, 300, nullptr, nullptr);

  SelectionIndex index(40);
  index.extend(source, 100, nullptr, nullptr);
  // A spilled set of the old prefix, then one of the new range, fails.
  for (const std::uint64_t failing : {50u, 250u}) {
    source.fail_at = failing;
    support::metrics::MetricsRegistry metrics;
    EXPECT_THROW(index.extend(source, 300, &metrics, nullptr), std::runtime_error);
    EXPECT_EQ(index.num_sets(), 100u);
    EXPECT_EQ(index.lengths().size(), 100u);
    ASSERT_EQ(index.segments().size(), 1u);
    EXPECT_EQ(metrics.counter("selector.elements_decoded").value(), 0u);
  }
  index.extend(source, 300, nullptr, nullptr);
  expect_same_selection(select(index, 6, ArgMaxMode::kLazyHeap),
                        select(whole, 6, ArgMaxMode::kLazyHeap));
}

TEST(SelectionIndex, TruncationBelowThePrefixRebuildsFromSetZero) {
  std::mt19937_64 rng(3);
  const VectorSource source = random_collection(rng, 25, 200);
  SelectionIndex index(25);
  index.extend(source, 150, nullptr, nullptr);
  index.extend(source, 90, nullptr, nullptr);
  SelectionIndex expected(25);
  expected.extend(source, 90, nullptr, nullptr);
  EXPECT_EQ(index.num_sets(), 90u);
  expect_same_selection(select(index, 5, ArgMaxMode::kLazyHeap),
                        select(expected, 5, ArgMaxMode::kLazyHeap));
}

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

struct DevicePool {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  explicit DevicePool(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(256)));
      ptrs.push_back(owned.back().get());
    }
  }
};

TEST(SelectionIndex, FreshRunsDecodeEachElementOnce) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  const auto check = [](const EimResult& r, support::metrics::MetricsRegistry& m) {
    ASSERT_GE(m.counter("selector.select_calls").value(), 2u);
    EXPECT_EQ(m.counter("selector.elements_decoded").value(), r.total_elements);
  };
  {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    support::metrics::MetricsRegistry metrics;
    EimOptions options;
    options.metrics = &metrics;
    check(run_eim(device, g, DiffusionModel::IndependentCascade, params, options),
          metrics);
  }
  {
    DevicePool pool(3);
    support::metrics::MetricsRegistry metrics;
    EimOptions options;
    options.metrics = &metrics;
    check(run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params,
                        options),
          metrics);
  }
  {
    gpusim::ClusterSpec spec;
    spec.num_nodes = 2;
    spec.node.num_devices = 2;
    spec.node.device = gpusim::make_benchmark_device(256);
    gpusim::Cluster cluster(spec);
    support::metrics::MetricsRegistry metrics;
    EimOptions options;
    options.metrics = &metrics;
    check(run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params,
                          options),
          metrics);
  }
}

TEST(SelectionIndex, DomainLostWhileReStreamingASpilledSetKeepsTheModeledAnswer) {
  // Three devices spill their shards to disk. Device 1 launches its four
  // sampling waves, then reads disk blocks only inside selections: four in
  // each of the first two, the rest in the last two. Read 20 comes back
  // torn, so a later selection — with two segments already indexed — runs
  // a resample kernel on device 1 while re-streaming its spilled sets, and
  // the device dies at that launch. The figures are those the per-call
  // mirror rebuild produced, recorded bit-exactly; communication_seconds
  // includes the primary's failover redistribution.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  DevicePool clean(3);
  const EimResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  EimOptions options;
  options.spill.policy = SpillPolicy::Spill;
  options.spill.device_budget_bytes = reference.rrr_bytes / 12;
  options.spill.host_budget_bytes = 1;  // every block goes to disk
  options.spill.sets_per_block = 128;
  {
    DevicePool intact(3);
    (void)run_eim_multi(intact.ptrs, g, DiffusionModel::IndependentCascade, params,
                        options);
    ASSERT_EQ(intact.ptrs[1]->kernel_launch_ordinal(), 4u);
  }

  DevicePool pool(3);
  gpusim::FaultPlan plan;
  plan.spill_corrupt_ordinals = {20};
  plan.device_loss_kernel_ordinal = 4;
  pool.ptrs[1]->set_fault_plan(plan);
  support::metrics::MetricsRegistry metrics;
  options.metrics = &metrics;
  const EimResult lost =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
  EXPECT_EQ(lost.seeds, (std::vector<VertexId>{4, 5, 3, 16, 108, 476, 1, 177}));
  EXPECT_EQ(lost.num_sets, 7358u);
  EXPECT_EQ(lost.total_elements, 34104u);
  EXPECT_EQ(lost.failed_domains, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(lost.kernel_seconds, 0x1.bfaab61b78059p-11);
  EXPECT_EQ(lost.transfer_seconds, 0x1.f0f02ddb65f89p-8);
  EXPECT_EQ(lost.communication_seconds, 0x1.3e0e9a6384f74p-10);
  EXPECT_EQ(lost.device_seconds, 0x1.31f08197ea483p-7);
  // The aborted selection indexed nothing, so nothing was counted twice.
  EXPECT_EQ(metrics.counter("selector.elements_decoded").value(), lost.total_elements);
}

TEST(SelectionIndex, OomWhileRegeneratingALostDomainRebuildsFromSetZero) {
  // Two 128 KB devices under Degrade. Device 1 dies at its third launch,
  // after the first selection indexed 2,529 sets; regenerating its sets on
  // device 0 runs out of memory, which freezes theta at the first id device
  // 1 held, below the indexed prefix. The index restarts from set 0, and
  // the answer is the one the per-call mirror rebuild gave, pinned
  // bit-exactly.
  const Graph g = make_graph();
  gpusim::DeviceSpec spec = gpusim::make_benchmark_device(1);
  spec.global_memory_bytes = 128 << 10;
  gpusim::Device d0(spec);
  gpusim::Device d1(spec);
  gpusim::FaultPlan plan;
  plan.device_loss_kernel_ordinal = 2;
  d1.set_fault_plan(plan);
  support::metrics::MetricsRegistry metrics;
  EimOptions options;
  options.sampler_blocks = 16;
  options.degrade_policy = DegradePolicy::Degrade;
  options.metrics = &metrics;
  const EimResult r =
      run_eim_multi({&d0, &d1}, g, DiffusionModel::IndependentCascade, make_params(),
                    options);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.failed_domains, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(r.num_sets, 1u);
  EXPECT_EQ(r.seeds, (std::vector<VertexId>{27, 0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(r.device_seconds, 0x1.92f2891806238p-9);
  // 11,539 elements of the first selection's segment, then the 2 of set 0.
  EXPECT_EQ(metrics.counter("selector.elements_decoded").value(), 11541u);
}

TEST(SelectionIndex, ResumedRunMatchesACleanOne) {
  // A two-device spilled run is killed halfway through its launches; a
  // fresh process resumes from the last round checkpoint, with an empty
  // index, and must reach the uninterrupted answer.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  DevicePool clean(2);
  const EimResult reference =
      run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, params);

  const std::string dir = ::testing::TempDir() + "eim_selection_index_resume_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  EimOptions options;
  options.spill.policy = SpillPolicy::Spill;
  options.spill.device_budget_bytes = reference.rrr_bytes / 8;
  options.checkpoint_dir = dir;
  DevicePool doomed(2);
  gpusim::FaultPlan plan;
  plan.process_abort_kernel_ordinal = clean.ptrs[0]->kernel_launch_ordinal() / 2;
  doomed.ptrs[0]->set_fault_plan(plan);
  EXPECT_THROW((void)run_eim_multi(doomed.ptrs, g, DiffusionModel::IndependentCascade,
                                   params, options),
               support::ProcessAbortError);

  const CheckpointState ckpt = load_checkpoint(dir);
  std::filesystem::remove_all(dir);
  ASSERT_GT(ckpt.lengths.size(), 0u);
  ASSERT_LT(ckpt.lengths.size(), reference.num_sets);
  EimOptions resume;
  resume.spill = options.spill;
  resume.resume = &ckpt;
  DevicePool fresh(2);
  const EimResult resumed =
      run_eim_multi(fresh.ptrs, g, DiffusionModel::IndependentCascade, params, resume);
  EXPECT_EQ(resumed.seeds, reference.seeds);
  EXPECT_EQ(resumed.num_sets, reference.num_sets);
  EXPECT_EQ(resumed.total_elements, reference.total_elements);
  EXPECT_EQ(resumed.singletons_discarded, reference.singletons_discarded);
  EXPECT_EQ(resumed.estimated_spread, reference.estimated_spread);
}

}  // namespace
}  // namespace eim::eim_impl
