// One failover report for every topology (docs/RESILIENCE.md "Failover
// report", docs/OBSERVABILITY.md "Failover"). The sharded driver records each
// domain loss once: into EimResult's failed_domains / regenerated_sets /
// respilled_samples, into the failover.* counters and as one domain.lost
// trace instant. The interconnect only charges the recovery transfer. These
// tests hold the three views to each other on a one-device run, a multi-GPU
// fleet and a cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/multi_node.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"
#include "eim/support/json.hpp"
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

struct DevicePool {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  explicit DevicePool(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(256)));
      ptrs.push_back(owned.back().get());
    }
  }
  void lose(std::uint32_t device, std::uint64_t kernel_ordinal) {
    gpusim::FaultPlan plan;
    plan.device_loss_kernel_ordinal = kernel_ordinal;
    ptrs[device]->set_fault_plan(plan);
  }
};

gpusim::Cluster make_cluster(std::uint32_t nodes) {
  gpusim::ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node.num_devices = 1;
  spec.node.device = gpusim::make_benchmark_device(256);
  return gpusim::Cluster(spec);
}

// Everything a run left behind about its failovers.
struct Observed {
  support::metrics::MetricsRegistry registry;
  support::trace::TraceRecorder trace;
  EimOptions options;
  Observed() {
    options.metrics = &registry;
    options.trace = &trace;
  }
  [[nodiscard]] std::string metrics_json() const {
    std::ostringstream out;
    support::JsonWriter w(out);
    registry.write_json(w);
    return out.str();
  }
  [[nodiscard]] std::vector<support::trace::TraceInstant> instants_named(
      const std::string& name) const {
    std::vector<support::trace::TraceInstant> hits;
    for (const auto& i : trace.instants()) {
      if (i.name == name) hits.push_back(i);
    }
    return hits;
  }
};

// The counters and the domain.lost instants say what the result says.
void expect_report_agrees(const EimResult& result, Observed& seen) {
  EXPECT_EQ(seen.registry.counter("failover.domains_lost").value(),
            result.failed_domains.size());
  EXPECT_EQ(seen.registry.counter("failover.regenerated_sets").value(),
            result.regenerated_sets);
  EXPECT_EQ(seen.registry.counter("failover.respilled_samples").value(),
            result.respilled_samples);
  EXPECT_GE(result.respilled_samples, result.regenerated_sets);

  const auto lost = seen.instants_named("domain.lost");
  ASSERT_EQ(lost.size(), result.failed_domains.size());
  std::uint64_t respilled = 0;
  for (const auto& i : lost) {
    ASSERT_EQ(i.detail.rfind("respilled=", 0), 0u) << i.detail;
    respilled += std::stoull(i.detail.substr(std::string("respilled=").size()));
  }
  EXPECT_EQ(respilled, result.respilled_samples);
}

std::size_t count_segments(const gpusim::DeviceTimeline& timeline, const std::string& label) {
  const auto& segments = timeline.segments();
  return static_cast<std::size_t>(std::count_if(
      segments.begin(), segments.end(), [&](const auto& s) { return s.label == label; }));
}

TEST(FailoverReport, SingleDeviceReportsNoLossAndNoCommunication) {
  const Graph g = make_graph();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  Observed seen;
  const EimResult result = run_eim(device, g, DiffusionModel::IndependentCascade,
                                   make_params(), seen.options);

  EXPECT_FALSE(result.seeds.empty());
  EXPECT_TRUE(result.failed_domains.empty());
  EXPECT_EQ(result.regenerated_sets, 0u);
  EXPECT_EQ(result.respilled_samples, 0u);
  EXPECT_EQ(result.communication_seconds, 0.0);
  // No loss, so the failover counters are never created.
  EXPECT_EQ(seen.metrics_json().find("failover."), std::string::npos);
  EXPECT_TRUE(seen.instants_named("domain.lost").empty());
}

TEST(FailoverReport, MultiGpuCountersAndInstantsMirrorTheResult) {
  const Graph g = make_graph();
  DevicePool pool(4);
  pool.lose(2, 2);
  Observed seen;
  const EimResult result = run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade,
                                         make_params(), seen.options);

  ASSERT_EQ(result.failed_domains, std::vector<std::uint32_t>{2u});
  EXPECT_GT(result.respilled_samples, 0u);
  expect_report_agrees(result, seen);
}

TEST(FailoverReport, ClusterCountersAndInstantsMirrorTheResult) {
  const Graph g = make_graph();
  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({1, 2, -1.0});
  cluster.set_fault_plan(plan);
  Observed seen;
  const EimResult result = run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade,
                                           make_params(), seen.options);

  ASSERT_EQ(result.failed_domains, std::vector<std::uint32_t>{1u});
  EXPECT_GT(result.respilled_samples, 0u);
  EXPECT_GT(result.communication_seconds, 0.0);
  expect_report_agrees(result, seen);
}

TEST(FailoverReport, TwoLossesAreRecordedOnceEachInLossOrder) {
  const Graph g = make_graph();
  DevicePool pool(4);
  pool.lose(3, 1);
  pool.lose(1, 2);
  Observed seen;
  const EimResult result = run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade,
                                         make_params(), seen.options);

  ASSERT_EQ(result.failed_domains, (std::vector<std::uint32_t>{3u, 1u}));
  expect_report_agrees(result, seen);
}

TEST(FailoverReport, RetiredCounterAndInstantNamesAreNeverEmitted) {
  const Graph g = make_graph();

  DevicePool pool(3);
  pool.lose(1, 2);
  Observed multi;
  const EimResult lost_device = run_eim_multi(
      pool.ptrs, g, DiffusionModel::IndependentCascade, make_params(), multi.options);
  ASSERT_EQ(lost_device.failed_domains.size(), 1u);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({2, 2, -1.0});
  cluster.set_fault_plan(plan);
  Observed clustered;
  const EimResult lost_node = run_eim_cluster(
      cluster, g, DiffusionModel::IndependentCascade, make_params(), clustered.options);
  ASSERT_EQ(lost_node.failed_domains.size(), 1u);

  for (Observed* seen : {&multi, &clustered}) {
    const std::string json = seen->metrics_json();
    EXPECT_NE(json.find("\"failover.domains_lost\":1"), std::string::npos) << json;
    EXPECT_EQ(json.find("multi.failover_"), std::string::npos) << json;
    EXPECT_EQ(json.find("cluster.node_lost"), std::string::npos) << json;
    EXPECT_EQ(json.find("cluster.reshard_samples"), std::string::npos) << json;
    EXPECT_TRUE(seen->instants_named("device.lost").empty());
    EXPECT_TRUE(seen->instants_named("node.lost").empty());
  }
}

TEST(FailoverReport, EachInterconnectChargesOneRecoveryTransferPerLoss) {
  const Graph g = make_graph();

  DevicePool clean(4);
  (void)run_eim_multi(clean.ptrs, g, DiffusionModel::IndependentCascade, make_params());
  EXPECT_EQ(count_segments(clean.ptrs[0]->timeline(), "H2D failover redistribution"), 0u);

  // Device 0 stays the primary, so it carries the redistribution.
  DevicePool pool(4);
  pool.lose(2, 2);
  const EimResult lost_device =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, make_params());
  ASSERT_EQ(lost_device.failed_domains.size(), 1u);
  EXPECT_EQ(count_segments(pool.ptrs[0]->timeline(), "H2D failover redistribution"), 1u);

  gpusim::Cluster steady = make_cluster(3);
  (void)run_eim_cluster(steady, g, DiffusionModel::IndependentCascade, make_params());
  EXPECT_EQ(count_segments(steady.timeline(), "reshard"), 0u);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({1, 2, -1.0});
  cluster.set_fault_plan(plan);
  const EimResult lost_node =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, make_params());
  ASSERT_EQ(lost_node.failed_domains.size(), 1u);
  EXPECT_EQ(count_segments(cluster.timeline(), "reshard"), 1u);
}

TEST(FailoverReport, BothTopologiesBookTheRecoveryTransferAsCommunication) {
  // communication_seconds is traffic between failure domains: the primary's
  // failover redistribution counts in it, as a cluster's reshard does.
  const Graph g = make_graph();
  const auto seconds_of = [](const gpusim::DeviceTimeline& timeline,
                             const std::string& label) {
    double total = 0.0;
    for (const auto& s : timeline.segments()) {
      if (s.label == label) total += s.seconds;
    }
    return total;
  };

  // Device 0 stays the primary, so every multi-GPU exchange is on its link.
  DevicePool pool(4);
  pool.lose(2, 2);
  const EimResult lost_device =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, make_params());
  ASSERT_EQ(lost_device.failed_domains.size(), 1u);
  const gpusim::DeviceTimeline& primary = pool.ptrs[0]->timeline();
  const double redistribution = seconds_of(primary, "H2D failover redistribution");
  EXPECT_GT(redistribution, 0.0);
  const double exchanges = seconds_of(primary, "H2D count all-reduce") +
                           seconds_of(primary, "H2D pick broadcast") +
                           seconds_of(primary, "D2H coverage delta");
  EXPECT_NEAR(lost_device.communication_seconds, exchanges + redistribution,
              1e-12 * lost_device.communication_seconds);

  gpusim::Cluster cluster = make_cluster(3);
  gpusim::ClusterFaultPlan plan;
  plan.node_losses.push_back({1, 2, -1.0});
  cluster.set_fault_plan(plan);
  const EimResult lost_node =
      run_eim_cluster(cluster, g, DiffusionModel::IndependentCascade, make_params());
  ASSERT_EQ(lost_node.failed_domains.size(), 1u);
  const double reshard = seconds_of(cluster.timeline(), "reshard");
  EXPECT_GT(reshard, 0.0);
  EXPECT_GE(lost_node.communication_seconds, reshard);
}

}  // namespace
}  // namespace eim::eim_impl
