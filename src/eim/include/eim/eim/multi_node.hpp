// Multi-node eIM over the modeled cluster tier (gpusim/cluster.hpp) — the
// DiFuseR-shaped step past single-host multi-GPU (arXiv:2410.14047).
//
// The driver of multi_gpu.hpp one level up: each node is a failure
// domain of D devices (sample id i on node alive[i % N'], then round-robin
// over its devices), so the seeds are bit-identical for ANY node count,
// alive set, or failure history. The interconnect is the modeled cluster
// network: counts combine in one allreduce per sampling phase, and each
// pick exchanges the chosen vertex and coverage delta in one small one.
//
// Resilience (docs/RESILIENCE.md, "Cluster failover"):
//  * every collective is wrapped in support::retry under EimOptions::retry —
//    transient link faults back off exponentially on the cluster's modeled
//    clock and re-attempt;
//  * retry exhaustion escalates the faulting node to dead (timeout =>
//    node-dead), exactly like a scripted NodeLostError;
//  * a dead node's residual sample range is resharded across survivors
//    (id % N' restriping) and regenerated from the same index-keyed
//    streams, so final seeds stay bit-identical to the fault-free run;
//  * a device-tier loss inside a node retires the whole node (a host whose
//    GPU died is drained rather than limped);
//  * if the alive set falls below `quorum`, the run either raises
//    ClusterQuorumError (exit code 6) or — under DegradePolicy::Degrade, the
//    same switch that governs device OOM — keeps the committed prefix, stops
//    extending theta, and publishes best-effort seeds with `degraded` and
//    the shortfall (docs/RESILIENCE.md, "Degradation").
//
// The result is the EimResult every topology returns: communication_seconds
// holds the network ledger's transfer seconds (collectives and reshards,
// backoff excluded), failed_domains the dead nodes in death order, and
// respilled_samples the sample ids resharded off them. Collective retries
// are the `collective.retries` counter.
#pragma once

#include <cstdint>

#include "eim/eim/options.hpp"
#include "eim/gpusim/cluster.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

/// Every topology returns EimResult; this spelling stays for callers that
/// still use it (the repository benchmark).
using MultiNodeResult = EimResult;

/// Run eIM across every device of `cluster`. Seeds (and every other
/// algorithmic output) are identical to the single-device run with the same
/// parameters; only the modeled time changes — under faults too, as long as
/// at least `quorum` (1..node count) nodes stay alive. Checkpoints written
/// by any topology (single-device, multi-GPU, any node count) resume here
/// bit-identically, and vice versa.
[[nodiscard]] EimResult run_eim_cluster(gpusim::Cluster& cluster, const graph::Graph& g,
                                        graph::DiffusionModel model,
                                        const imm::ImmParams& params,
                                        const EimOptions& options = {},
                                        std::uint32_t quorum = 1);

}  // namespace eim::eim_impl
