#include "eim/eim/multi_node.hpp"

#include <span>
#include <string>
#include <utility>

#include "eim/gpusim/timeline_trace.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"
#include "sharded.hpp"

namespace eim::eim_impl {

namespace {

/// The modeled cluster network: one domain per node, every exchange a
/// retried collective on the cluster fabric, charged to its own ledger.
class ClusterNetwork final : public Interconnect {
 public:
  // Construct after the device tracks are registered: the fabric's track
  // comes last.
  ClusterNetwork(gpusim::Cluster& cluster, MultiNodeResult& result,
                 const EimOptions& options)
      : cluster_(cluster),
        result_(result),
        retry_(options.retry),
        metrics_(options.metrics),
        trace_(options.trace) {
    if (metrics_ != nullptr) {
      backoff_hist_ = &metrics_->histogram("collective.backoff_seconds");
    }
    if (trace_ != nullptr) pid_ = trace_->register_process("cluster network", &cluster_);
    cluster_.timeline().reset();
  }

  // One broadcast over the fabric (each device's PCIe staging is charged
  // when its shard is built). A node that dies this early — collective
  // ordinal 0 — drains with an empty shard and the broadcast re-runs.
  void broadcast_network(const Fleet& fleet, std::uint64_t bytes) override {
    run_collective(fleet, &gpusim::Cluster::broadcast, "network broadcast", bytes);
  }

  void reduce_counts(const Fleet& fleet, std::uint64_t bytes) override {
    run_collective(fleet, &gpusim::Cluster::allreduce, "count allreduce", bytes);
    if (metrics_ != nullptr) metrics_->counter("cluster.count_allreduces").add();
  }

  // The chosen vertex and the coverage delta travel in one 12-byte allreduce.
  void exchange_pick(const Fleet& fleet) override {
    run_collective(fleet, &gpusim::Cluster::allreduce, "pick exchange",
                   sizeof(graph::VertexId) + sizeof(std::uint64_t));
    if (metrics_ != nullptr) metrics_->counter("cluster.pick_exchanges").add();
  }

  // Charge the reshard manifest to the survivors; the driver then enforces
  // quorum.
  void domain_lost(const Fleet& fleet, std::uint32_t n, std::uint64_t /*regenerated*/,
                   std::uint64_t respilled) override {
    cluster_.mark_node_lost(n);
    result_.failed_nodes.push_back(n);
    result_.reshard_samples += respilled;
    gpusim::mark_instant(trace_, *fleet.domains[n].front(), "node.lost",
                         "respilled=" + std::to_string(respilled));
    if (fleet.alive.empty()) {
      throw support::ClusterQuorumError("every node lost", 0, fleet.quorum);
    }
    // Survivors receive the dead shard's sample-id manifest. Charged as a
    // plain network transfer — recovery traffic must not consume collective
    // ordinals, or fault scripts keyed to them would shift under failover.
    const std::uint64_t bytes = respilled * sizeof(std::uint64_t);
    if (bytes > 0) cluster_.charge_transfer("reshard", bytes, fleet.alive);
    if (metrics_ != nullptr) {
      metrics_->counter("cluster.node_lost").add();
      metrics_->counter("cluster.reshard_samples").add(respilled);
    }
    if (bytes > 0) mark("reshard", "bytes=" + std::to_string(bytes));
  }

  [[nodiscard]] const gpusim::DeviceTimeline& ledger() const override {
    return cluster_.timeline();
  }
  void finish() override {
    result_.communication_seconds = cluster_.timeline().transfer_seconds();
    if (trace_ != nullptr) {
      gpusim::record_timeline_spans(*trace_, pid_, cluster_.timeline());
    }
    if (metrics_ != nullptr) {
      metrics_->phase("cluster.communication").add_modeled(result_.communication_seconds);
      metrics_->counter("cluster.link_faults_injected")
          .add(cluster_.fault_stats().link_faults);
    }
  }

 private:
  // Instant on the fabric's track at its modeled clock.
  void mark(std::string name, std::string detail) {
    if (trace_ == nullptr) return;
    trace_->instant(pid_, std::move(name), std::move(detail),
                    cluster_.timeline().total_seconds());
  }

  // Run one collective under EimOptions::retry. Transient link faults back
  // off on the cluster's modeled clock and re-attempt; exhausting the
  // budget escalates the flaky link's node to dead (timeout => node-dead),
  // surfacing as the same NodeLostError a scripted loss produces.
  using Collective = double (gpusim::Cluster::*)(const std::string&, std::uint64_t,
                                                  std::span<const std::uint32_t>);
  void run_collective(const Fleet& fleet, Collective collective, const std::string& label,
                      std::uint64_t bytes) {
    // The collective occupies the fabric track as a Collective span (non-leaf
    // — the cluster timeline's own segments are folded in as leaves at the
    // end of the run, and a leaf here would double-count them). Each alive
    // participant sends a flow arrow from its device-0 track into the span,
    // which is how the export shows who fed the barrier. If the op unwinds
    // (node loss), the ScopedSpan closes zero-length at the start point and
    // the arrows stay dangling at their senders — both mark the fault site.
    support::trace::ScopedSpan span(trace_, pid_,
                                    support::trace::SpanCategory::Collective, label,
                                    cluster_.timeline().total_seconds());
    std::vector<std::uint64_t> flow_ids;
    if (trace_ != nullptr) {
      for (const std::uint32_t n : fleet.alive) {
        const gpusim::Device& sender = *fleet.domains[n].front();
        const auto pid = trace_->pid_of(&sender);
        if (!pid.has_value()) continue;
        const std::uint64_t flow_id = trace_->new_flow_id();
        trace_->flow_start(*pid, flow_id, label, sender.timeline().total_seconds());
        flow_ids.push_back(flow_id);
      }
    }
    try {
      (void)support::retry(
          retry_,
          [&] { return (cluster_.*collective)(label, bytes, fleet.alive); },
          [&](std::uint32_t retry_index, double backoff_seconds,
              const support::DeviceFaultError&) {
            ++result_.collective_retries;
            cluster_.charge_backoff(label + " backoff", backoff_seconds);
            if (metrics_ != nullptr) {
              metrics_->counter("collective.retries").add();
              backoff_hist_->observe_duration(backoff_seconds);
            }
            mark("collective.retry", label + " retry=" + std::to_string(retry_index));
          });
    } catch (const support::LinkFaultError& e) {
      cluster_.mark_node_lost(e.node());
      throw support::NodeLostError(label + ": link retry budget exhausted", e.node());
    }
    const double end_ts = cluster_.timeline().total_seconds();
    if (trace_ != nullptr) {
      for (const std::uint64_t flow_id : flow_ids) {
        trace_->flow_end(pid_, flow_id, label, end_ts);
      }
    }
    span.end(end_ts);
  }

  gpusim::Cluster& cluster_;
  MultiNodeResult& result_;
  support::RetryPolicy retry_;
  support::metrics::MetricsRegistry* metrics_;
  support::trace::TraceRecorder* trace_;
  support::metrics::Histogram* backoff_hist_ = nullptr;
  std::uint32_t pid_ = 0;
};

}  // namespace

MultiNodeResult run_eim_cluster(gpusim::Cluster& cluster, const graph::Graph& g,
                                graph::DiffusionModel model,
                                const imm::ImmParams& params, const EimOptions& options,
                                std::uint32_t quorum) {
  const std::uint32_t num_nodes = cluster.num_nodes();
  const std::uint32_t devices_per_node = cluster.spec().node.num_devices;
  EIM_CHECK_MSG(quorum >= 1, "quorum must be at least 1");
  EIM_CHECK_MSG(quorum <= num_nodes,
                "quorum cannot exceed the cluster's node count");

  // Nodes the previous life of this cluster already killed stay out of the
  // run; the driver keys everything off the alive set, never raw indices.
  // One trace track per alive device plus one for the cluster fabric
  // (registered by ClusterNetwork); collective instants ride on the fabric
  // track, node.lost on the dying node's track.
  Fleet fleet;
  fleet.quorum = quorum;
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    auto& domain = fleet.domains.emplace_back();
    const bool alive = !cluster.node(n).lost();
    if (alive) fleet.alive.push_back(n);
    for (std::uint32_t d = 0; d < devices_per_node; ++d) {
      domain.push_back(&cluster.node(n).device(d));
      if (alive && options.trace != nullptr) {
        options.trace->register_process(
            "node " + std::to_string(n) + " device " + std::to_string(d), domain.back());
      }
    }
  }
  EIM_CHECK_MSG(!fleet.alive.empty(), "cluster has no alive nodes");
  EIM_CHECK_MSG(fleet.alive.size() >= quorum,
                "cluster is below quorum before the run starts");

  MultiNodeResult result;
  result.num_nodes = num_nodes;
  result.devices_per_node = devices_per_node;
  ClusterNetwork network(cluster, result, options);
  run_sharded(std::move(fleet), network, g, model, params, options, result);
  return result;
}

}  // namespace eim::eim_impl
