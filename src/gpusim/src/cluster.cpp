#include "eim/gpusim/cluster.hpp"

#include <cmath>

#include "eim/support/error.hpp"

namespace eim::gpusim {

namespace {

/// ceil(log2 p) for p >= 1 — the hop count of the logarithmic collectives.
std::uint32_t log2_hops(std::size_t p) noexcept {
  std::uint32_t hops = 0;
  std::size_t reach = 1;
  while (reach < p) {
    reach *= 2;
    ++hops;
  }
  return hops;
}

}  // namespace

ClusterNode::ClusterNode(std::uint32_t index, const NodeSpec& spec) : index_(index) {
  devices_.reserve(spec.num_devices);
  for (std::uint32_t d = 0; d < spec.num_devices; ++d) {
    devices_.push_back(std::make_unique<Device>(spec.device));
  }
}

Cluster::Cluster(ClusterSpec spec) : spec_(spec) {
  EIM_CHECK_MSG(spec_.num_nodes >= 1, "cluster needs at least one node");
  EIM_CHECK_MSG(spec_.node.num_devices >= 1, "node needs at least one device");
  EIM_CHECK_MSG(spec_.node.link.link_gbytes_per_sec > 0.0,
                "link bandwidth must be positive");
  EIM_CHECK_MSG(spec_.node.link.link_latency_us >= 0.0,
                "link latency must be non-negative");
  nodes_.reserve(spec_.num_nodes);
  for (std::uint32_t n = 0; n < spec_.num_nodes; ++n) {
    nodes_.push_back(std::unique_ptr<ClusterNode>(new ClusterNode(n, spec_.node)));
  }
}

void Cluster::mark_node_lost(std::uint32_t node_index) noexcept {
  if (node_index >= nodes_.size()) return;
  ClusterNode& n = *nodes_[node_index];
  if (n.lost_) return;
  n.lost_ = true;
  ++fault_stats_.node_losses;
}

double Cluster::effective_link_bandwidth(std::uint32_t node_index) const noexcept {
  // A straggler divides bandwidth; overlapping rules compound by taking the
  // worst (max) factor, matching how a degraded NIC dominates its link.
  double factor = 1.0;
  for (const auto& rule : fault_plan_.slowdowns) {
    if (rule.node == node_index && rule.factor > factor) {
      factor = rule.factor;
    }
  }
  return spec_.node.link.link_gbytes_per_sec * 1e9 / factor;
}

double Cluster::bottleneck_bandwidth(
    std::span<const std::uint32_t> participants) const {
  double slowest = spec_.node.link.link_gbytes_per_sec * 1e9;
  for (std::uint32_t n : participants) {
    const double bw = effective_link_bandwidth(n);
    if (bw < slowest) slowest = bw;
  }
  return slowest;
}

double Cluster::run_collective(CollectiveKind kind, const std::string& label,
                               std::uint64_t bytes,
                               std::span<const std::uint32_t> participants) {
  EIM_CHECK_MSG(!participants.empty(), "collective needs at least one participant");
  const std::uint64_t ordinal = collective_ordinal_++;

  // Node-loss checks run before any cost is charged: a dead participant
  // fails the collective outright, exactly like a dead device fails a
  // launch. Sticky — once a rule fires the node stays dead.
  for (std::uint32_t n : participants) {
    EIM_CHECK_MSG(n < nodes_.size(), "collective participant out of range");
    ClusterNode& node = *nodes_[n];
    if (!node.lost_) {
      bool dies = false;
      for (const auto& rule : fault_plan_.node_losses) {
        if (rule.node != n) continue;
        if (ordinal >= rule.collective_ordinal) dies = true;
        if (rule.at_seconds >= 0.0 && timeline_.total_seconds() >= rule.at_seconds) {
          dies = true;
        }
      }
      if (dies) {
        node.lost_ = true;
        ++fault_stats_.node_losses;
      }
    }
    if (node.lost_) {
      throw support::NodeLostError(label + " (collective ordinal " +
                                       std::to_string(ordinal) + ")",
                                   n);
    }
  }

  // Each participant's NIC consumes one link transfer ordinal per attempt;
  // a scripted transient fault aborts the attempt after charging the setup
  // latency (the wire was touched), mirroring device transfer faults.
  const double latency = spec_.node.link.link_latency_us * 1e-6;
  std::uint32_t faulted_node = 0;
  std::uint64_t faulted_ordinal = 0;
  bool faulted = false;
  for (std::uint32_t n : participants) {
    ClusterNode& node = *nodes_[n];
    const std::uint64_t link_ordinal = node.link_transfer_ordinal_++;
    if (faulted) continue;  // later NICs still consume their ordinals
    for (const auto& rule : fault_plan_.link_faults) {
      if (rule.node == n && rule.transfer_ordinal == link_ordinal) {
        faulted = true;
        faulted_node = n;
        faulted_ordinal = link_ordinal;
        break;
      }
    }
  }
  if (faulted) {
    ++fault_stats_.link_faults;
    timeline_.add(SegmentKind::Transfer, label + " [link fault]", latency);
    throw support::LinkFaultError(label, faulted_ordinal, faulted_node);
  }

  const std::size_t p = participants.size();
  double seconds = 0.0;
  if (p > 1) {
    const double hops = static_cast<double>(log2_hops(p));
    const double bw = bottleneck_bandwidth(participants);
    const double b = static_cast<double>(bytes);
    const double frac = static_cast<double>(p - 1) / static_cast<double>(p);
    switch (kind) {
      case CollectiveKind::Allreduce:
        // Rabenseifner: reduce-scatter + allgather, each moving (p-1)/p of
        // the vector over log2(p) rounds on the slowest link.
        seconds = 2.0 * hops * latency + 2.0 * frac * b / bw;
        break;
      case CollectiveKind::Broadcast:
        // Pipelined binomial tree: latency per hop, payload streams once.
        seconds = hops * latency + b / bw;
        break;
    }
  }
  timeline_.add(SegmentKind::Transfer, label, seconds);
  return seconds;
}

double Cluster::allreduce(const std::string& label, std::uint64_t bytes,
                          std::span<const std::uint32_t> participants) {
  return run_collective(CollectiveKind::Allreduce, label, bytes, participants);
}

double Cluster::broadcast(const std::string& label, std::uint64_t bytes,
                          std::span<const std::uint32_t> participants) {
  return run_collective(CollectiveKind::Broadcast, label, bytes, participants);
}

void Cluster::charge_transfer(const std::string& label, std::uint64_t bytes,
                              std::span<const std::uint32_t> participants) {
  const double latency = spec_.node.link.link_latency_us * 1e-6;
  // Recovery traffic sees the straggler state but consumes no ordinal.
  const double bw = participants.empty()
                        ? spec_.node.link.link_gbytes_per_sec * 1e9
                        : bottleneck_bandwidth(participants);
  timeline_.add(SegmentKind::Transfer, label,
                latency + static_cast<double>(bytes) / bw);
}

}  // namespace eim::gpusim
