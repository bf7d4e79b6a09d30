// Modeled multi-node cluster above the device pool.
//
// A Cluster is N identical nodes, each holding D simulated Devices plus a
// network link; collectives (allreduce / broadcast) are charged
// to a cluster-level DeviceTimeline using standard logarithmic collective
// cost models over the slowest participating link. Like everything else in
// gpusim, the cluster runs deterministically: collectives consume a global
// *collective ordinal*, each node's link consumes a *link transfer ordinal*
// per collective attempt, and every scripted fault is keyed by those
// ordinals or by modeled cluster time — never wall-clock — so a fault plan
// reproduces the identical failure at the identical point on every run.
//
// Fault classes (ClusterFaultPlan; docs/RESILIENCE.md, "Cluster failover"):
//  * node loss      — NodeLostError once a collective ordinal or a modeled
//    cluster-time threshold is reached; sticky — the node stays dead and
//    every later collective naming it fails the same way. The caller
//    (eim/multi_node) reshards the dead node's sample range to survivors.
//  * link fault     — transient LinkFaultError at a node's link transfer
//    ordinal; one collective attempt fails, the next attempt consumes fresh
//    ordinals and succeeds unless the plan lists consecutive ordinals.
//    Retryable (LinkFaultError derives from DeviceFaultError, the class
//    support::retry catches); retry exhaustion escalates to node-dead.
//  * straggler      — scripted link slowdown: a node's link bandwidth is
//    divided by a factor, stretching every collective it participates in
//    (the ring/tree is gated by the slowest link). Stragglers change only
//    modeled time, never results.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "eim/gpusim/device.hpp"
#include "eim/gpusim/fault_plan.hpp"
#include "eim/gpusim/timeline.hpp"

namespace eim::gpusim {

/// Per-node interconnect description (NVLink-class intra-node traffic is
/// already part of DeviceSpec; this is the inter-node NIC).
struct NetworkSpec {
  double link_gbytes_per_sec = 25.0;  ///< effective per-node NIC bandwidth (200 GbE)
  double link_latency_us = 5.0;       ///< per-hop message latency
};

/// One cluster node: D devices behind one network link.
struct NodeSpec {
  std::uint32_t num_devices = 1;
  DeviceSpec device;
  NetworkSpec link;
};

/// N identical nodes. Homogeneous by construction — heterogeneous fleets
/// are modeled through ClusterFaultPlan stragglers, not through the spec.
struct ClusterSpec {
  std::uint32_t num_nodes = 1;
  NodeSpec node;
};

/// Deterministic cluster-tier fault script (see file comment).
struct ClusterFaultPlan {
  struct NodeLoss {
    std::uint32_t node = 0;
    /// The node dies when the global collective ordinal reaches this.
    std::uint64_t collective_ordinal = kNeverOrdinal;
    /// ... or when the cluster timeline passes this (< 0 = disabled).
    double at_seconds = -1.0;
  };
  struct LinkFault {
    std::uint32_t node = 0;
    /// This node's link transfer ordinal (one consumed per collective
    /// attempt the node participates in) that fails transiently.
    std::uint64_t transfer_ordinal = kNeverOrdinal;
  };
  struct LinkSlowdown {
    std::uint32_t node = 0;
    double factor = 1.0;  ///< bandwidth divisor (>= 1)
  };

  std::vector<NodeLoss> node_losses;
  std::vector<LinkFault> link_faults;
  std::vector<LinkSlowdown> slowdowns;

  [[nodiscard]] bool empty() const noexcept {
    return node_losses.empty() && link_faults.empty() && slowdowns.empty();
  }
};

/// Monotone tallies of injected cluster faults.
struct ClusterFaultStats {
  std::uint64_t node_losses = 0;  ///< nodes that died (scripted or escalated)
  std::uint64_t link_faults = 0;  ///< transient link faults injected
};

class Cluster;

/// One node's runtime state: its devices, its link ordinal counter, and its
/// liveness. Constructed by the Cluster; devices are owned here so a node's
/// lifetime is the natural shard boundary.
class ClusterNode {
 public:
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint32_t num_devices() const noexcept {
    return static_cast<std::uint32_t>(devices_.size());
  }
  [[nodiscard]] Device& device(std::uint32_t d) noexcept { return *devices_[d]; }
  [[nodiscard]] const Device& device(std::uint32_t d) const noexcept {
    return *devices_[d];
  }
  /// True once the node died (scripted loss or escalated link timeout).
  [[nodiscard]] bool lost() const noexcept { return lost_; }
  /// Link transfer attempts so far (the link-fault ordinal space).
  [[nodiscard]] std::uint64_t link_transfer_ordinal() const noexcept {
    return link_transfer_ordinal_;
  }

 private:
  friend class Cluster;
  ClusterNode(std::uint32_t index, const NodeSpec& spec);

  std::uint32_t index_;
  std::vector<std::unique_ptr<Device>> devices_;
  bool lost_ = false;
  std::uint64_t link_transfer_ordinal_ = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] ClusterNode& node(std::uint32_t i) noexcept { return *nodes_[i]; }
  [[nodiscard]] const ClusterNode& node(std::uint32_t i) const noexcept {
    return *nodes_[i];
  }

  /// The cluster network ledger: collectives land as Transfer segments,
  /// retry backoff as Backoff segments. total_seconds() is the modeled
  /// network time the multi-node result reports as communication.
  [[nodiscard]] DeviceTimeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const DeviceTimeline& timeline() const noexcept { return timeline_; }

  /// Install a deterministic cluster fault plan. Replaces any previous
  /// plan; ordinal counters are NOT reset (same contract as Device).
  void set_fault_plan(ClusterFaultPlan plan) noexcept { fault_plan_ = std::move(plan); }
  [[nodiscard]] const ClusterFaultPlan& fault_plan() const noexcept {
    return fault_plan_;
  }

  /// Collective attempts so far (the node-loss scripting key).
  [[nodiscard]] std::uint64_t collective_ordinal() const noexcept {
    return collective_ordinal_;
  }
  [[nodiscard]] ClusterFaultStats fault_stats() const noexcept { return fault_stats_; }

  /// Charge deterministic retry backoff to the cluster timeline.
  void charge_backoff(const std::string& label, double seconds) {
    timeline_.add(SegmentKind::Backoff, label, seconds);
  }

  /// Escalate a node to permanently dead outside a scripted loss — the
  /// multi-node layer calls this when a link's transient faults exhaust the
  /// retry budget (timeout => node-dead) or when a device-tier loss drains
  /// the whole node. Idempotent; counted once.
  void mark_node_lost(std::uint32_t node_index) noexcept;

  /// Effective link bandwidth of `node_index` after scripted slowdowns
  /// (bytes/second).
  [[nodiscard]] double effective_link_bandwidth(std::uint32_t node_index) const noexcept;

  // -- modeled collectives ----------------------------------------------
  //
  // `participants` are node indices (the caller's alive set). Each call
  // consumes ONE global collective ordinal plus one link transfer ordinal
  // per participant, runs the fault checks, charges the modeled cost to the
  // cluster timeline, and returns the seconds charged. A single-participant
  // collective is free but still consumes ordinals (fault scripting stays
  // aligned however many nodes survive). Cost models (P participants, B
  // bytes, L = slowest participating link, lat = link latency):
  //   allreduce:  2*ceil(log2 P)*lat + 2*(P-1)/P * B / L   (Rabenseifner)
  //   broadcast:  ceil(log2 P)*lat + B / L                 (pipelined tree)
  double allreduce(const std::string& label, std::uint64_t bytes,
                   std::span<const std::uint32_t> participants);
  double broadcast(const std::string& label, std::uint64_t bytes,
                   std::span<const std::uint32_t> participants);

  /// Meter point-to-point recovery traffic (shard resharding) on the
  /// cluster timeline. Not a collective: consumes no ordinals and runs no
  /// fault checks — recovery traffic must not perturb the scripted fault
  /// schedule keyed to collective ordinals.
  void charge_transfer(const std::string& label, std::uint64_t bytes,
                       std::span<const std::uint32_t> participants);

 private:
  enum class CollectiveKind { Allreduce, Broadcast };
  double run_collective(CollectiveKind kind, const std::string& label,
                        std::uint64_t bytes,
                        std::span<const std::uint32_t> participants);
  /// Slowest participating link in bytes/second.
  [[nodiscard]] double bottleneck_bandwidth(
      std::span<const std::uint32_t> participants) const;

  ClusterSpec spec_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  DeviceTimeline timeline_;
  ClusterFaultPlan fault_plan_;
  ClusterFaultStats fault_stats_;
  std::uint64_t collective_ordinal_ = 0;
};

}  // namespace eim::gpusim
