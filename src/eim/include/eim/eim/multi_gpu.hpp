// Multi-GPU eIM — the extension announced in the paper's conclusion
// ("we plan to extend eIM to support multi-GPU execution to further improve
// scalability").
//
// A thin adapter over the one eIM driver (src/eim/src/sharded.hpp) with one
// failure domain per device: device d samples the ids congruent to d modulo
// D from the index-keyed streams, so the union is bit-identical to a
// single-device run. The interconnect is host PCIe via the primary: the
// other devices ship their per-vertex counts to it after each sampling
// phase, and each pick is priced as the slowest device's scan of its own
// shard plus a broadcast of the chosen vertex (4 bytes) and a gather of
// every device's coverage delta, all serialized on its copy engine.
// Modeled time per phase = max over devices (they run concurrently) plus
// those transfers. Spill, OOM degrade and transfer retry work per device
// exactly as on one device. A device lost mid-run (DeviceLostError, or a
// transient fault past the retry budget) has its residual shard
// regenerated on the survivors from the same streams, so the seeds stay
// bit-identical; only the modeled time and shard layout change, and the
// primary pays one broadcast of the respilled sample ids. The result is the
// EimResult every topology returns: communication_seconds holds the count
// reductions, pick exchanges and failover redistributions, failed_domains
// the lost devices' indices
// (docs/RESILIENCE.md, "Failover report").
#pragma once

#include <vector>

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

/// Run eIM across `devices.size()` simulated GPUs. Seeds (and every other
/// algorithmic output) are identical to the single-device run with the same
/// parameters; only the modeled time changes. Device loss mid-run triggers
/// deterministic failover (see above) as long as one device survives;
/// losing every device rethrows the last device's fault (DeviceLostError,
/// or DeviceFaultError when its retry budget ran out).
[[nodiscard]] EimResult run_eim_multi(std::vector<gpusim::Device*> devices,
                                      const graph::Graph& g, graph::DiffusionModel model,
                                      const imm::ImmParams& params,
                                      const EimOptions& options = {});

}  // namespace eim::eim_impl
