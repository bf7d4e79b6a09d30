// Multi-node eIM over the modeled cluster tier (gpusim/cluster.hpp) — the
// DiFuseR-shaped step past single-host multi-GPU (ROADMAP item 4).
//
// The driver of multi_gpu.hpp one level up: each node is a failure
// domain of D devices (sample id i on node alive[i % N'], then round-robin
// over its devices), so the seeds are bit-identical for ANY node count,
// alive set, or failure history. The interconnect is the modeled cluster
// network: counts combine in one allreduce per sampling phase, and each
// pick exchanges the chosen vertex and coverage delta in one small one.
//
// Resilience (docs/RESILIENCE.md, "Cluster failover"):
//  * every collective is wrapped in support::retry — transient link faults
//    back off exponentially on the cluster's modeled clock and re-attempt;
//  * retry exhaustion escalates the faulting node to dead (timeout =>
//    node-dead), exactly like a scripted NodeLostError;
//  * a dead node's residual sample range is resharded across survivors
//    (id % N' restriping) and regenerated from the same index-keyed
//    streams, so final seeds stay bit-identical to the fault-free run;
//  * a device-tier loss inside a node retires the whole node (a host whose
//    GPU died is drained rather than limped);
//  * if the alive set falls below MultiNodeOptions::quorum, the run either
//    raises ClusterQuorumError (exit code 6) or — with node_degrade — keeps
//    the committed prefix, stops extending theta, and publishes best-effort
//    seeds with `degraded` + the sample shortfall, mirroring OomPolicy.
#pragma once

#include <cstdint>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/gpusim/cluster.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"
#include "eim/support/retry.hpp"

namespace eim::eim_impl {

struct MultiNodeOptions {
  /// Minimum alive nodes for the run to stay authoritative. Falling below
  /// raises ClusterQuorumError unless `node_degrade` is set.
  std::uint32_t quorum = 1;
  /// Below-quorum policy: true = best-effort seeds with `degraded` + sample
  /// shortfall (the cluster analogue of OomPolicy::Degrade); false = throw.
  bool node_degrade = false;
  /// Bounded retry for transient link faults around collectives; backoff is
  /// deterministic modeled time on the cluster network timeline.
  support::RetryPolicy collective_retry;
};

struct MultiNodeResult : EimResult {
  std::uint32_t num_nodes = 1;
  std::uint32_t devices_per_node = 1;
  /// Modeled seconds on the cluster network (collectives + resharding).
  double communication_seconds = 0.0;
  /// Nodes decommissioned by failover, in death order.
  std::vector<std::uint32_t> failed_nodes;
  /// Sample ids resharded off dead nodes onto survivors.
  std::uint64_t reshard_samples = 0;
  /// Collective attempts that were retried after a transient link fault.
  std::uint64_t collective_retries = 0;
  /// Samples the degraded run fell short of the fault-free theta target
  /// (0 unless quorum loss degraded the run).
  std::uint64_t degrade_shortfall_samples = 0;
};

/// Run eIM across every device of `cluster`. Seeds (and every other
/// algorithmic output) are identical to the single-device run with the same
/// parameters; only the modeled time changes — under faults too, as long as
/// the alive set never drops below quorum. Checkpoints written by any
/// topology (single-device, multi-GPU, any node count) resume here
/// bit-identically, and vice versa.
[[nodiscard]] MultiNodeResult run_eim_cluster(gpusim::Cluster& cluster,
                                              const graph::Graph& g,
                                              graph::DiffusionModel model,
                                              const imm::ImmParams& params,
                                              const EimOptions& options = {},
                                              const MultiNodeOptions& node_options = {});

}  // namespace eim::eim_impl
