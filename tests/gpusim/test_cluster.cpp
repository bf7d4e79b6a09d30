#include "eim/gpusim/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/retry.hpp"

namespace eim::gpusim {
namespace {

ClusterSpec small_cluster(std::uint32_t nodes, std::uint32_t devices = 1) {
  ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node.num_devices = devices;
  return spec;
}

std::vector<std::uint32_t> all_nodes(std::uint32_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(Cluster, SpecShapesTheFleet) {
  Cluster cluster(small_cluster(3, 2));
  EXPECT_EQ(cluster.num_nodes(), 3u);
  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n).index(), n);
    EXPECT_EQ(cluster.node(n).num_devices(), 2u);
    EXPECT_FALSE(cluster.node(n).lost());
  }
}

TEST(Cluster, RejectsDegenerateSpecs) {
  EXPECT_THROW(Cluster(small_cluster(0)), support::Error);
  ClusterSpec no_devices = small_cluster(2, 0);
  EXPECT_THROW(Cluster{no_devices}, support::Error);
  ClusterSpec dead_link = small_cluster(2);
  dead_link.node.link.link_gbytes_per_sec = 0.0;
  EXPECT_THROW(Cluster{dead_link}, support::Error);
}

TEST(Cluster, SingleParticipantCollectiveIsFreeButConsumesOrdinals) {
  Cluster cluster(small_cluster(2));
  const std::vector<std::uint32_t> solo{0};
  EXPECT_DOUBLE_EQ(cluster.allreduce("r", 1 << 20, solo), 0.0);
  EXPECT_EQ(cluster.collective_ordinal(), 1u);
  EXPECT_EQ(cluster.node(0).link_transfer_ordinal(), 1u);
  EXPECT_EQ(cluster.node(1).link_transfer_ordinal(), 0u);
  EXPECT_DOUBLE_EQ(cluster.timeline().total_seconds(), 0.0);
}

TEST(Cluster, AllreduceMatchesRabenseifnerCost) {
  Cluster cluster(small_cluster(4));
  const auto nodes = all_nodes(4);
  const std::uint64_t bytes = 100 << 20;
  const double seconds = cluster.allreduce("counts", bytes, nodes);
  const double lat = cluster.spec().node.link.link_latency_us * 1e-6;
  const double bw = cluster.spec().node.link.link_gbytes_per_sec * 1e9;
  const double expected =
      2.0 * 2.0 * lat + 2.0 * (3.0 / 4.0) * static_cast<double>(bytes) / bw;
  EXPECT_DOUBLE_EQ(seconds, expected);
  EXPECT_DOUBLE_EQ(cluster.timeline().transfer_seconds(), expected);
}

TEST(Cluster, CollectiveCostsOrderSensibly) {
  // Same payload: broadcast streams once, the allreduce round-trips — so
  // broadcast < allreduce here.
  Cluster cluster(small_cluster(8));
  const auto nodes = all_nodes(8);
  const std::uint64_t bytes = 64 << 20;
  const double bcast = cluster.broadcast("b", bytes, nodes);
  const double ar = cluster.allreduce("r", bytes, nodes);
  EXPECT_LT(bcast, ar);
  EXPECT_EQ(cluster.collective_ordinal(), 2u);
  for (std::uint32_t n = 0; n < 8; ++n) {
    EXPECT_EQ(cluster.node(n).link_transfer_ordinal(), 2u);
  }
}

TEST(Cluster, NodeLossAtCollectiveOrdinalZeroIsSticky) {
  // Edge case: a loss scripted at ordinal 0 must fire on the very first
  // collective, not one-late (the >= match is sticky, like device loss).
  Cluster cluster(small_cluster(3));
  ClusterFaultPlan plan;
  plan.node_losses.push_back({1, 0, -1.0});
  cluster.set_fault_plan(plan);
  const auto nodes = all_nodes(3);
  EXPECT_THROW(cluster.allreduce("r0", 1024, nodes), support::NodeLostError);
  EXPECT_TRUE(cluster.node(1).lost());
  EXPECT_EQ(cluster.fault_stats().node_losses, 1u);
  // Sticky: naming the dead node keeps failing, counted once.
  EXPECT_THROW(cluster.allreduce("r1", 1024, nodes), support::NodeLostError);
  EXPECT_EQ(cluster.fault_stats().node_losses, 1u);
  // Survivors carry on without it.
  const std::vector<std::uint32_t> survivors{0, 2};
  EXPECT_GT(cluster.allreduce("r2", 1024, survivors), 0.0);
}

TEST(Cluster, NodeLossReportsTheNodeIndex) {
  Cluster cluster(small_cluster(4));
  ClusterFaultPlan plan;
  plan.node_losses.push_back({2, 1, -1.0});
  cluster.set_fault_plan(plan);
  const auto nodes = all_nodes(4);
  EXPECT_GT(cluster.broadcast("b", 1024, nodes), 0.0);  // ordinal 0: clean
  try {
    cluster.allreduce("r", 1024, nodes);
    FAIL() << "expected NodeLostError";
  } catch (const support::NodeLostError& e) {
    EXPECT_EQ(e.node(), 2u);
  }
}

TEST(Cluster, NodeLossAtModeledTime) {
  Cluster cluster(small_cluster(2));
  ClusterFaultPlan plan;
  plan.node_losses.push_back({0, kNeverOrdinal, 1e-12});
  cluster.set_fault_plan(plan);
  const auto nodes = all_nodes(2);
  // First collective: the timeline is still at zero, below the threshold.
  EXPECT_GT(cluster.allreduce("r0", 1 << 20, nodes), 0.0);
  // Time has accrued past the threshold; the next collective kills node 0.
  EXPECT_THROW(cluster.allreduce("r1", 1 << 20, nodes), support::NodeLostError);
  EXPECT_TRUE(cluster.node(0).lost());
}

TEST(Cluster, LinkFaultIsTransientAndRetryable) {
  Cluster cluster(small_cluster(3));
  ClusterFaultPlan plan;
  plan.link_faults.push_back({1, 0});  // node 1's first NIC attempt fails
  cluster.set_fault_plan(plan);
  const auto nodes = all_nodes(3);

  const double before = cluster.timeline().transfer_seconds();
  try {
    cluster.allreduce("counts", 1 << 20, nodes);
    FAIL() << "expected LinkFaultError";
  } catch (const support::LinkFaultError& e) {
    EXPECT_EQ(e.node(), 1u);
    EXPECT_EQ(e.ordinal(), 0u);
  }
  // The aborted attempt burned setup latency and every NIC's ordinal, so a
  // bare re-attempt (what support::retry does) runs clean.
  EXPECT_GT(cluster.timeline().transfer_seconds(), before);
  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n).link_transfer_ordinal(), 1u);
  }
  EXPECT_GT(cluster.allreduce("counts", 1 << 20, nodes), 0.0);
  EXPECT_EQ(cluster.fault_stats().link_faults, 1u);
  EXPECT_FALSE(cluster.node(1).lost());
}

TEST(Cluster, LinkFaultWorksUnderSupportRetry) {
  // LinkFaultError derives from DeviceFaultError, so the standard retry
  // wrapper recovers scripted link blips with deterministic backoff.
  Cluster cluster(small_cluster(2));
  ClusterFaultPlan plan;
  plan.link_faults.push_back({0, 0});
  cluster.set_fault_plan(plan);
  const auto nodes = all_nodes(2);

  std::uint32_t retries = 0;
  const double seconds = support::retry(
      support::RetryPolicy{},
      [&] { return cluster.allreduce("r", 1 << 20, nodes); },
      [&](std::uint32_t, double backoff, const support::DeviceFaultError&) {
        ++retries;
        cluster.charge_backoff("r backoff", backoff);
      });
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(retries, 1u);
  EXPECT_GT(cluster.timeline().backoff_seconds(), 0.0);
}

TEST(Cluster, StragglerStretchesEveryCollective) {
  const auto nodes = all_nodes(4);
  const std::uint64_t bytes = 32 << 20;

  Cluster clean(small_cluster(4));
  const double fast = clean.allreduce("r", bytes, nodes);

  Cluster slowed(small_cluster(4));
  ClusterFaultPlan plan;
  plan.slowdowns.push_back({2, 4.0});  // node 2's NIC runs at 1/4 speed
  slowed.set_fault_plan(plan);
  // The slowest link gates the whole ring, from the first collective on.
  const double dragged = slowed.allreduce("r", bytes, nodes);
  EXPECT_GT(dragged, fast);
  EXPECT_DOUBLE_EQ(slowed.allreduce("r", bytes, nodes), dragged);
  EXPECT_DOUBLE_EQ(slowed.effective_link_bandwidth(2),
                   slowed.spec().node.link.link_gbytes_per_sec * 1e9 / 4.0);
  EXPECT_DOUBLE_EQ(slowed.effective_link_bandwidth(0),
                   slowed.spec().node.link.link_gbytes_per_sec * 1e9);
}

TEST(Cluster, OverlappingSlowdownsTakeTheWorstFactor) {
  Cluster cluster(small_cluster(2));
  ClusterFaultPlan plan;
  plan.slowdowns.push_back({0, 2.0});
  plan.slowdowns.push_back({0, 8.0});
  cluster.set_fault_plan(plan);
  EXPECT_DOUBLE_EQ(cluster.effective_link_bandwidth(0),
                   cluster.spec().node.link.link_gbytes_per_sec * 1e9 / 8.0);
}

TEST(Cluster, ChargeTransferConsumesNoOrdinals) {
  // Recovery traffic must not shift fault scripts keyed to collective or
  // link ordinals — it meters time only.
  Cluster cluster(small_cluster(2));
  const auto nodes = all_nodes(2);
  cluster.charge_transfer("reshard", 1 << 20, nodes);
  EXPECT_EQ(cluster.collective_ordinal(), 0u);
  EXPECT_EQ(cluster.node(0).link_transfer_ordinal(), 0u);
  EXPECT_GT(cluster.timeline().transfer_seconds(), 0.0);
}

TEST(Cluster, MarkNodeLostIsIdempotentAndFailsLaterCollectives) {
  Cluster cluster(small_cluster(3));
  cluster.mark_node_lost(1);
  cluster.mark_node_lost(1);
  EXPECT_TRUE(cluster.node(1).lost());
  EXPECT_EQ(cluster.fault_stats().node_losses, 1u);
  const auto nodes = all_nodes(3);
  EXPECT_THROW(cluster.allreduce("r", 1024, nodes), support::NodeLostError);
}

TEST(Cluster, IdenticalPlansProduceIdenticalTimelines) {
  // Determinism: the fault schedule and cost model are pure functions of
  // the ordinal stream — two clusters driven identically agree bit-for-bit.
  ClusterFaultPlan plan;
  plan.link_faults.push_back({0, 1});
  plan.slowdowns.push_back({1, 3.0});
  const auto nodes = all_nodes(3);
  double totals[2] = {0.0, 0.0};
  for (int rep = 0; rep < 2; ++rep) {
    Cluster cluster(small_cluster(3));
    cluster.set_fault_plan(plan);
    cluster.broadcast("b", 4096, nodes);
    EXPECT_THROW(cluster.allreduce("r", 4096, nodes), support::LinkFaultError);
    cluster.allreduce("r", 4096, nodes);
    totals[rep] = cluster.timeline().total_seconds();
  }
  EXPECT_DOUBLE_EQ(totals[0], totals[1]);
}

TEST(Cluster, QuorumErrorMapsToItsOwnExitCode) {
  const support::ClusterQuorumError e("sampling", 1, 2);
  EXPECT_EQ(e.alive_nodes(), 1u);
  EXPECT_EQ(e.quorum(), 2u);
  EXPECT_EQ(support::exit_code_for(e), support::kExitClusterLost);
  EXPECT_STREQ(support::error_kind_for(e), "cluster_lost");
  // NodeLostError stays in the device-loss family (exit 5) — only quorum
  // exhaustion earns the cluster-lost contract.
  const support::NodeLostError n("collective", 3);
  EXPECT_EQ(n.node(), 3u);
  EXPECT_EQ(support::exit_code_for(n), support::kExitDeviceFault);
}

}  // namespace
}  // namespace eim::gpusim
