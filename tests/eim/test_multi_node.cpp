// Multi-node cluster tier (eim/multi_node.hpp, docs/RESILIENCE.md "Cluster
// failover"). The ClusterFailover suite proves the three contract points:
// (a) killing any single node at any collective ordinal yields bit-identical
// final seeds, (b) a mid-run checkpoint resumes bit-identically on a
// different node count, (c) quorum loss degrades gracefully under
// DegradePolicy::Degrade instead of aborting.
#include "eim/eim/multi_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;

Graph make_graph() {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(400, 3, 0.3, 7));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 6;
  p.epsilon = 0.3;
  return p;
}

gpusim::Cluster make_cluster(std::uint32_t nodes, std::uint32_t devices = 1,
                             std::uint64_t mb = 256) {
  gpusim::ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node.num_devices = devices;
  spec.node.device = gpusim::make_benchmark_device(mb);
  return gpusim::Cluster(spec);
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path(::testing::TempDir() + stem + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

void expect_same_answer(const EimResult& a, const EimResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_sets, b.num_sets);
  EXPECT_EQ(a.total_elements, b.total_elements);
  EXPECT_EQ(a.singletons_discarded, b.singletons_discarded);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
  EXPECT_DOUBLE_EQ(a.estimated_spread, b.estimated_spread);
}

TEST(MultiNode, SingleNodeMatchesSingleDevicePipeline) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device solo(gpusim::make_benchmark_device(256));
  const EimResult single = run_eim(solo, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(1);
  const EimResult clustered =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);

  expect_same_answer(single, clustered);
  EXPECT_TRUE(clustered.failed_domains.empty());
  EXPECT_FALSE(clustered.degraded);
}

class MultiNodeCounts : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MultiNodeCounts, SeedsIdenticalAcrossNodeCounts) {
  // The headline property carried up a tier: any node count yields the
  // bit-identical result, because global sample ids key the streams.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster one = make_cluster(1);
  const auto reference =
      run_eim_cluster(one, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(GetParam());
  const auto sharded =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);
  expect_same_answer(reference, sharded);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, MultiNodeCounts,
                         ::testing::Values(2u, 3u, 4u, 8u));

TEST(MultiNode, MultiDeviceNodesMatchAndMatchMultiGpu) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster one = make_cluster(1);
  const auto reference =
      run_eim_cluster(one, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster grid = make_cluster(2, 2);
  const auto sharded =
      run_eim_cluster(grid, g, DiffusionModel::IndependentCascade, params);
  expect_same_answer(reference, sharded);

  // Cross-tier parity: the single-host multi-GPU path agrees too.
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(
        std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(256)));
    ptrs.push_back(owned.back().get());
  }
  const auto multi = run_eim_multi(ptrs, g, DiffusionModel::IndependentCascade, params);
  EXPECT_EQ(multi.seeds, sharded.seeds);
}

TEST(MultiNode, ScalingReducesKernelTimeAtCommunicationCost) {
  const Graph g = make_graph();
  imm::ImmParams params = make_params();
  params.epsilon = 0.2;  // enough theta for the split to matter

  gpusim::Cluster one = make_cluster(1);
  gpusim::Cluster four = make_cluster(4);
  const auto solo = run_eim_cluster(one, g, DiffusionModel::IndependentCascade, params);
  const auto quad = run_eim_cluster(four, g, DiffusionModel::IndependentCascade, params);
  EXPECT_EQ(solo.seeds, quad.seeds);
  EXPECT_LT(quad.kernel_seconds, solo.kernel_seconds);
  EXPECT_GT(quad.communication_seconds, solo.communication_seconds);
}

TEST(ClusterFailover, KillingAnyNodeAtAnyCollectiveOrdinalKeepsSeeds) {
  // Acceptance point (a): sweep the scripted node loss over EVERY collective
  // ordinal the clean run executes; each variant reshards and finishes with
  // bit-identical seeds. Also covers the ordinal-0 edge (death at the very
  // first collective, before any sampling).
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);
  const std::uint64_t total_collectives = clean.collective_ordinal();
  ASSERT_GT(total_collectives, 2u);

  for (std::uint64_t ordinal = 0; ordinal < total_collectives; ++ordinal) {
    gpusim::Cluster cluster = make_cluster(3);
    gpusim::ClusterFaultPlan plan;
    plan.node_losses.push_back({1, ordinal, -1.0});
    cluster.set_fault_plan(plan);
    const EimResult failed =
        run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);
    ASSERT_EQ(failed.seeds, reference.seeds) << "loss at ordinal " << ordinal;
    ASSERT_EQ(failed.num_sets, reference.num_sets) << "loss at ordinal " << ordinal;
    ASSERT_EQ(failed.failed_domains, std::vector<std::uint32_t>{1u})
        << "loss at ordinal " << ordinal;
    ASSERT_TRUE(cluster.node(1).lost());
  }
}

TEST(ClusterFailover, PrimaryNodeLossPromotesASurvivor) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({0, 2, -1.0});  // kill the primary's node
  cluster.set_fault_plan(plan);
  const EimResult failed =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);
  expect_same_answer(reference, failed);
  EXPECT_EQ(failed.failed_domains, std::vector<std::uint32_t>{0u});
}

TEST(ClusterFailover, LossAtFinalOrdinalFiresAndOneBeyondDoesNot) {
  // Final-ordinal edge regression (node tier): a loss keyed exactly at the
  // clean run's last collective still triggers failover; keyed one past it,
  // the plan never fires and the run must report no failover at all.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);
  const std::uint64_t total = clean.collective_ordinal();

  gpusim::Cluster at_last = make_cluster(3);
  gpusim::ClusterFaultPlan last_plan;
  last_plan.node_losses.push_back({2, total - 1, -1.0});
  at_last.set_fault_plan(last_plan);
  const EimResult last =
      run_eim_cluster(at_last, g, DiffusionModel::IndependentCascade, params);
  expect_same_answer(reference, last);
  EXPECT_EQ(last.failed_domains, std::vector<std::uint32_t>{2u});

  gpusim::Cluster beyond = make_cluster(3);
  gpusim::ClusterFaultPlan beyond_plan;
  beyond_plan.node_losses.push_back({2, total, -1.0});
  beyond.set_fault_plan(beyond_plan);
  const EimResult never =
      run_eim_cluster(beyond, g, DiffusionModel::IndependentCascade, params);
  expect_same_answer(reference, never);
  EXPECT_TRUE(never.failed_domains.empty());
  EXPECT_FALSE(beyond.node(2).lost());
}

TEST(ClusterFailover, NodeLossByModeledTimeAlsoRecovers) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);
  const double mid = clean.timeline().total_seconds() / 2.0;
  ASSERT_GT(mid, 0.0);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({1, gpusim::kNeverOrdinal, mid});
  cluster.set_fault_plan(plan);
  const EimResult failed =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);
  expect_same_answer(reference, failed);
  EXPECT_EQ(failed.failed_domains, std::vector<std::uint32_t>{1u});
}

TEST(ClusterFailover, TransientLinkFaultRetriesWithBackoff) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.link_faults.push_back({1, 2});  // one blip on node 1's third attempt
  cluster.set_fault_plan(plan);
  support::metrics::MetricsRegistry registry;
  support::trace::TraceRecorder trace;
  EimOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  const EimResult retried = run_eim_cluster(
      cluster, g, DiffusionModel::IndependentCascade, params, options);

  // Transparent: the retry recovers, no node dies, seeds stay identical.
  EXPECT_EQ(retried.seeds, reference.seeds);
  EXPECT_TRUE(retried.failed_domains.empty());
  EXPECT_EQ(registry.counter("collective.retries").value(), 1u);
  EXPECT_EQ(registry.histogram("collective.backoff_seconds").count(), 1u);
  EXPECT_GT(cluster.timeline().backoff_seconds(), 0.0);
  const auto instants = trace.instants();
  EXPECT_TRUE(std::any_of(instants.begin(), instants.end(), [](const auto& i) {
    return i.name == "collective.retry";
  }));
}

TEST(ClusterTrace, CollectivesEmitSpansAndParticipantFlows) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster cluster = make_cluster(3);
  support::trace::TraceRecorder trace;
  EimOptions options;
  options.trace = &trace;
  (void)run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params,
                        options);

  const auto cluster_pid = trace.pid_of(&cluster);
  ASSERT_TRUE(cluster_pid.has_value());

  // Every collective lands as a Collective span on the fabric track, and
  // the known barrier labels all appear.
  const auto spans = trace.spans();
  std::vector<std::string> collective_names;
  for (const auto& s : spans) {
    if (s.category == support::trace::SpanCategory::Collective) {
      EXPECT_EQ(s.pid, *cluster_pid);
      EXPECT_GE(s.modeled_seconds, 0.0);
      collective_names.push_back(s.name);
    }
  }
  for (const char* label :
       {"network broadcast", "count allreduce", "pick exchange"}) {
    EXPECT_TRUE(std::any_of(collective_names.begin(), collective_names.end(),
                            [label](const auto& n) { return n == label; }))
        << label;
  }

  // Flow arrows: in a fault-free run every id pairs exactly one start (on a
  // node device track) with one finish (on the fabric track).
  const auto flows = trace.flows();
  ASSERT_FALSE(flows.empty());
  std::map<std::uint64_t, std::pair<int, int>> endpoints;  // id -> (starts, ends)
  for (const auto& f : flows) {
    if (f.start) {
      ++endpoints[f.flow_id].first;
      EXPECT_NE(f.pid, *cluster_pid);
    } else {
      ++endpoints[f.flow_id].second;
      EXPECT_EQ(f.pid, *cluster_pid);
    }
  }
  for (const auto& [id, counts] : endpoints) {
    EXPECT_EQ(counts.first, 1) << "flow " << id;
    EXPECT_EQ(counts.second, 1) << "flow " << id;
  }

  // Collective spans are non-leaf by design: the device-leaf sum on the
  // fabric track must still equal the cluster timeline exactly.
  double leaf_sum = 0.0;
  for (const auto& s : spans) {
    if (s.pid == *cluster_pid && support::trace::is_device_leaf(s.category)) {
      leaf_sum += s.modeled_seconds;
    }
  }
  EXPECT_DOUBLE_EQ(leaf_sum, cluster.timeline().total_seconds());
}

TEST(ClusterFailover, LinkRetryExhaustionEscalatesToNodeDead) {
  // Timeout => node-dead: consecutive link faults defeat the default
  // 3-attempt budget, the node is escalated to lost, its shard reshards,
  // and the run still lands on the fault-free answer.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.link_faults.push_back({1, 0});
  plan.link_faults.push_back({1, 1});
  plan.link_faults.push_back({1, 2});
  cluster.set_fault_plan(plan);
  support::metrics::MetricsRegistry registry;
  support::trace::TraceRecorder trace;
  EimOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  const EimResult failed = run_eim_cluster(
      cluster, g, DiffusionModel::IndependentCascade, params, options);

  expect_same_answer(reference, failed);
  EXPECT_EQ(failed.failed_domains, std::vector<std::uint32_t>{1u});
  EXPECT_TRUE(cluster.node(1).lost());
  // Two backoffs, then escalation.
  EXPECT_EQ(registry.counter("collective.retries").value(), 2u);
  EXPECT_EQ(registry.counter("failover.domains_lost").value(), 1u);
  const auto instants = trace.instants();
  EXPECT_TRUE(std::any_of(instants.begin(), instants.end(),
                          [](const auto& i) { return i.name == "domain.lost"; }));
}

TEST(ClusterFailover, CollectivesRetryUnderTheRunsRetryPolicy) {
  // Collectives follow EimOptions::retry: with a single attempt, one link
  // blip is already retry exhaustion and escalates to node loss.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.link_faults.push_back({1, 2});
  cluster.set_fault_plan(plan);
  support::metrics::MetricsRegistry registry;
  EimOptions options;
  options.metrics = &registry;
  options.retry.max_attempts = 1;
  const EimResult failed = run_eim_cluster(
      cluster, g, DiffusionModel::IndependentCascade, params, options);

  expect_same_answer(reference, failed);
  EXPECT_EQ(failed.failed_domains, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(registry.counter("collective.retries").value(), 0u);
}

TEST(ClusterFailover, StragglerChangesOnlyModeledTime) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(4);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(4);
  gpusim::ClusterFaultPlan plan;
  plan.slowdowns.push_back({2, 8.0, 0});  // node 2's NIC runs at 1/8 speed
  cluster.set_fault_plan(plan);
  const EimResult dragged =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);

  expect_same_answer(reference, dragged);
  EXPECT_TRUE(dragged.failed_domains.empty());
  EXPECT_GT(dragged.communication_seconds, reference.communication_seconds);
}

TEST(ClusterFailover, DeviceLossDrainsTheWholeNode) {
  // A node whose GPU dies is drained, not limped: the whole node retires
  // and its shard reshards, exactly like a scripted node loss.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(2, 2);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);

  gpusim::Cluster cluster = make_cluster(2, 2);
  gpusim::FaultPlan device_plan;
  device_plan.device_loss_kernel_ordinal = 2;
  cluster.node(1).device(0).set_fault_plan(device_plan);
  const EimResult failed =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params);

  expect_same_answer(reference, failed);
  EXPECT_EQ(failed.failed_domains, std::vector<std::uint32_t>{1u});
  EXPECT_GT(failed.respilled_samples, 0u);
}

TEST(ClusterFailover, QuorumLossThrowsWithExitCodeSix) {
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({2, 1, -1.0});
  cluster.set_fault_plan(plan);
  try {
    (void)run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params, {},
                          3);  // quorum 3: any loss is fatal
    FAIL() << "expected ClusterQuorumError";
  } catch (const support::ClusterQuorumError& e) {
    EXPECT_EQ(e.alive_nodes(), 2u);
    EXPECT_EQ(e.quorum(), 3u);
    EXPECT_EQ(support::exit_code_for(e), support::kExitClusterLost);
  }
}

TEST(ClusterFailover, QuorumLossDegradesGracefullyWhenOptedIn) {
  // Acceptance point (c): under DegradePolicy::Degrade, quorum loss freezes
  // the committed prefix, publishes best-effort seeds, and reports the
  // sample shortfall — the same switch and report as a device OOM.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({2, 1, -1.0});  // dies at the first count allreduce
  cluster.set_fault_plan(plan);
  support::metrics::MetricsRegistry registry;
  EimOptions options;
  options.metrics = &registry;
  options.degrade_policy = DegradePolicy::Degrade;
  const EimResult result = run_eim_cluster(
      cluster, g, DiffusionModel::IndependentCascade, params, options, 3);

  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.degrade_shortfall_samples, 0u);
  EXPECT_EQ(result.seeds.size(), params.k);
  EXPECT_GT(result.num_sets, 0u);
  EXPECT_EQ(result.failed_domains, std::vector<std::uint32_t>{2u});
  EXPECT_EQ(registry.counter("degrade.activations").value(), 1u);
  EXPECT_EQ(registry.counter("failover.domains_lost").value(), 1u);
  EXPECT_GT(registry.counter("failover.respilled_samples").value(), 0u);
}

TEST(ClusterFailover, OomAndQuorumLossFillOneShortfallReport) {
  // One policy, one report: a device OOM and a quorum loss on a cluster
  // both freeze theta once and report the samples it fell short by.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  const auto expect_degraded_once = [&](const EimResult& result,
                                        support::metrics::MetricsRegistry& registry) {
    EXPECT_TRUE(result.degraded);
    EXPECT_GT(result.degrade_shortfall_samples, 0u);
    EXPECT_GT(result.degrade_shortfall_bytes, 0u);
    EXPECT_EQ(result.seeds.size(), params.k);
    EXPECT_EQ(registry.counter("degrade.activations").value(), 1u);
    EXPECT_EQ(registry.gauge("degrade.shortfall_samples").value(),
              result.degrade_shortfall_samples);
  };

  gpusim::ClusterSpec spec;
  spec.num_nodes = 2;
  spec.node.device = gpusim::make_benchmark_device(1);
  spec.node.device.global_memory_bytes = 96 << 10;
  gpusim::Cluster small(spec);
  support::metrics::MetricsRegistry oom_registry;
  EimOptions options;
  options.sampler_blocks = 16;
  options.degrade_policy = DegradePolicy::Degrade;
  options.metrics = &oom_registry;
  const EimResult oom =
      run_eim_cluster(small, g, DiffusionModel::IndependentCascade, params, options);
  expect_degraded_once(oom, oom_registry);
  EXPECT_TRUE(oom.failed_domains.empty());

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({2, 1, -1.0});
  cluster.set_fault_plan(plan);
  support::metrics::MetricsRegistry quorum_registry;
  options = {};
  options.degrade_policy = DegradePolicy::Degrade;
  options.metrics = &quorum_registry;
  const EimResult quorum = run_eim_cluster(
      cluster, g, DiffusionModel::IndependentCascade, params, options, 3);
  expect_degraded_once(quorum, quorum_registry);
}

TEST(ClusterFailover, LosingEveryNodeThrowsEvenWithDegrade) {
  const Graph g = make_graph();
  gpusim::Cluster cluster = make_cluster(2);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({0, 1, -1.0});
  plan.node_losses.push_back({1, 2, -1.0});
  cluster.set_fault_plan(plan);
  EimOptions options;
  options.degrade_policy = DegradePolicy::Degrade;  // cannot save an empty cluster
  EXPECT_THROW((void)run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade,
                                     make_params(), options),
               support::ClusterQuorumError);
}

TEST(ClusterCheckpoint, MidRunSnapshotResumesAcrossNodeCounts) {
  // Acceptance point (b): a snapshot written by a 3-node cluster killed
  // mid-run resumes bit-identically on 2 nodes, on 4 nodes, and on a plain
  // single device — the checkpoint is topology-free (global sample-id
  // order), so the restored sets restripe over whatever fleet resumes.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);
  const std::uint64_t clean_launches =
      clean.node(0).device(0).kernel_launch_ordinal();
  ASSERT_GT(clean_launches, 1u);

  TempDir dir("eim_cluster_ckpt");
  {
    gpusim::Cluster doomed = make_cluster(3);
    gpusim::FaultPlan abort_plan;
    abort_plan.process_abort_kernel_ordinal = clean_launches / 2;
    doomed.node(0).device(0).set_fault_plan(abort_plan);
    EimOptions options;
    options.checkpoint_dir = dir.path;
    try {
      const EimResult full = run_eim_cluster(
          doomed, g, DiffusionModel::IndependentCascade, params, options);
      expect_same_answer(reference, full);  // abort landed past the last wave
    } catch (const support::ProcessAbortError&) {
      // The expected path: killed mid-sampling, snapshot left on disk.
    }
  }

  CheckpointState ckpt = load_checkpoint(dir.path);
  for (const std::uint32_t nodes : {2u, 4u}) {
    gpusim::Cluster resumed_cluster = make_cluster(nodes);
    EimOptions options;
    options.resume = &ckpt;
    const EimResult resumed = run_eim_cluster(
        resumed_cluster, g, DiffusionModel::IndependentCascade, params, options);
    expect_same_answer(reference, resumed);
  }

  // Cross-tier: the same snapshot resumes on the single-device pipeline.
  gpusim::Device solo(gpusim::make_benchmark_device(256));
  EimOptions solo_options;
  solo_options.resume = &ckpt;
  const EimResult solo_resumed =
      run_eim(solo, g, DiffusionModel::IndependentCascade, params, solo_options);
  expect_same_answer(reference, solo_resumed);
}

TEST(ClusterCheckpoint, FaultOnRestoreUploadReshardsEachRestoredSetOnce) {
  // Node 1's second device faults on its checkpoint-restore upload (transfer
  // ordinal 1, after the network staging), after its first device's upload
  // landed. The node drains: each of its restored sets — committed on device
  // 0 or in flight on device 1 — reshards exactly once.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  TempDir dir("eim_cluster_restore_fault");
  gpusim::Device solo(gpusim::make_benchmark_device(256));
  EimOptions write_options;
  write_options.checkpoint_dir = dir.path;
  const EimResult reference =
      run_eim(solo, g, DiffusionModel::IndependentCascade, params, write_options);

  CheckpointState ckpt = load_checkpoint(dir.path);
  ASSERT_GT(ckpt.lengths.size(), 0u);
  gpusim::Cluster cluster = make_cluster(2, 2);
  gpusim::FaultPlan plan;
  plan.transfer_fault_ordinals = {1, 2, 3};  // the upload and both retries
  cluster.node(1).device(1).set_fault_plan(plan);
  EimOptions options;
  options.resume = &ckpt;
  const EimResult resumed =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params, options);
  expect_same_answer(reference, resumed);
  EXPECT_EQ(resumed.failed_domains, std::vector<std::uint32_t>{1u});
  // Node 1 held the odd sample ids.
  EXPECT_EQ(resumed.respilled_samples, ckpt.lengths.size() / 2);
}

TEST(ClusterCheckpoint, ClusterResumesASingleDeviceSnapshot) {
  // The reverse direction: a snapshot written by the single-device pipeline
  // restripes onto a cluster and lands on the identical answer.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  TempDir dir("eim_single_to_cluster");
  gpusim::Device solo(gpusim::make_benchmark_device(256));
  EimOptions write_options;
  write_options.checkpoint_dir = dir.path;
  const EimResult reference =
      run_eim(solo, g, DiffusionModel::IndependentCascade, params, write_options);

  CheckpointState ckpt = load_checkpoint(dir.path);
  gpusim::Cluster cluster = make_cluster(3);
  EimOptions options;
  options.resume = &ckpt;
  const EimResult resumed =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params, options);
  expect_same_answer(reference, resumed);
}

TEST(ClusterCheckpoint, ResumeAfterNodeLossStillMatches) {
  // Belt and braces: resume on a different node count AND kill a node
  // during the resumed segment — both recovery paths compose.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Cluster clean = make_cluster(3);
  const EimResult reference =
      run_eim_cluster(clean, g, DiffusionModel::IndependentCascade, params);
  const std::uint64_t clean_launches =
      clean.node(0).device(0).kernel_launch_ordinal();

  TempDir dir("eim_cluster_ckpt_loss");
  {
    gpusim::Cluster doomed = make_cluster(3);
    gpusim::FaultPlan abort_plan;
    abort_plan.process_abort_kernel_ordinal = clean_launches / 2;
    doomed.node(0).device(0).set_fault_plan(abort_plan);
    EimOptions options;
    options.checkpoint_dir = dir.path;
    try {
      (void)run_eim_cluster(doomed, g, DiffusionModel::IndependentCascade, params,
                            options);
    } catch (const support::ProcessAbortError&) {
    }
  }

  CheckpointState ckpt = load_checkpoint(dir.path);
  gpusim::Cluster cluster = make_cluster(4);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({3, 2, -1.0});
  cluster.set_fault_plan(plan);
  EimOptions options;
  options.resume = &ckpt;
  const EimResult resumed =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, params, options);
  expect_same_answer(reference, resumed);
  EXPECT_EQ(resumed.failed_domains, std::vector<std::uint32_t>{3u});
}

}  // namespace
}  // namespace eim::eim_impl
