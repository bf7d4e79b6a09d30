// The eIM end-to-end pipeline on one device: the paper's contribution,
// assembled.
//
//   1. the network CSC is (optionally log-encoded and) placed in device
//      memory, paid for against the device budget and the PCIe model;
//   2. the IMM framework runs with eIM's sampler (global-memory queue pool,
//      source elimination) and eIM's greedy selection, each pick priced as
//      §3.5's arg-max + thread-per-set count-update kernels;
//   3. the result carries both the algorithmic outputs and the device
//      metrics (modeled seconds, peak memory, packed vs raw sizes) that the
//      paper's figures and tables report.
//
// run_eim is the one-device case of the eIM driver (src/eim/src/
// sharded.hpp), which owns spill, OOM degrade, retry and checkpointing.
//
// Throws support::DeviceOutOfMemoryError if the configured device budget is
// exceeded — the condition the benchmark harness reports as "OOM" — unless
// the spill tiers absorb it or OomPolicy::Degrade is set.
#pragma once

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

/// Run eIM on a fresh device state. The device's timeline and peak-memory
/// tracking are reset on entry so the result reflects this run alone.
[[nodiscard]] EimResult run_eim(gpusim::Device& device, const graph::Graph& g,
                                graph::DiffusionModel model,
                                const imm::ImmParams& params,
                                const EimOptions& options = {});

}  // namespace eim::eim_impl
