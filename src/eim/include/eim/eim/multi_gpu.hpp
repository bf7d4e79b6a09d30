// Multi-GPU eIM — the extension announced in the paper's conclusion
// ("we plan to extend eIM to support multi-GPU execution to further improve
// scalability").
//
// A thin adapter over the sharded driver (src/eim/src/sharded.hpp) with one
// failure domain per device: device d samples the ids congruent to d modulo
// D from the index-keyed streams, so the union is bit-identical to a
// single-device run. The interconnect is host PCIe via the primary: the
// other devices ship their per-vertex counts to it after each sampling
// phase, and each pick broadcasts the chosen vertex (4 bytes) and gathers
// every device's coverage delta, all serialized on its copy engine.
// Modeled time per phase = max over devices (they run concurrently) plus
// those transfers. A device lost mid-sampling (DeviceLostError, or a
// transient fault past the retry budget) has its residual shard
// regenerated on the survivors from the same streams, so the seeds stay
// bit-identical; only the modeled time and shard layout change
// (docs/RESILIENCE.md).
#pragma once

#include <cstdint>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

struct MultiGpuResult : EimResult {
  std::uint32_t num_devices = 1;
  /// Modeled seconds spent in count all-reduce / pick broadcast.
  double communication_seconds = 0.0;
  /// Devices (indices into the input vector) decommissioned by failover.
  std::vector<std::uint32_t> failed_devices;
  /// RRR sets that had to be regenerated on survivors after device loss.
  std::uint64_t failover_regenerated_sets = 0;
  /// Interconnect bytes spent redistributing lost shards' sample indices.
  std::uint64_t failover_transfer_bytes = 0;
};

/// Run eIM across `devices.size()` simulated GPUs. Seeds (and every other
/// algorithmic output) are identical to the single-device run with the same
/// parameters; only the modeled time changes. Device loss mid-run triggers
/// deterministic failover (see above) as long as one device survives;
/// losing every device raises DeviceLostError.
[[nodiscard]] MultiGpuResult run_eim_multi(std::vector<gpusim::Device*> devices,
                                           const graph::Graph& g,
                                           graph::DiffusionModel model,
                                           const imm::ImmParams& params,
                                           const EimOptions& options = {});

}  // namespace eim::eim_impl
