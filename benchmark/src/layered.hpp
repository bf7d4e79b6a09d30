// The traced run's single-device pipeline: run_eim re-assembled from the
// layers' public calls, with a wall-clock span around each call.
//
// It follows pipeline.cpp's fault-free path step for step — PackedCsc and
// device staging, then the DeviceRrrCollection / EimSampler / GpuSeedSelector
// constructors (plus attach_spill with a TieredRrrStore when the options ask
// for spilling), then imm::run_imm_framework with EimSampler::sample_to and
// GpuSeedSelector::select as callbacks and export_collection +
// save_checkpoint as on_round — and records into the registry what run_eim
// records: the "sample" and "select" phase timers and the checkpoint.*
// counters.
//
// This is a copy, so it must change whenever run_eim's staging, step order,
// checkpoint contents or instrumentation change. The traced run compares
// every layered solve with a plain run_eim solve of the same seed (seeds,
// θ, elements, rounds, staged network bytes, modeled transfer and kernel
// seconds) and fails when the copy has drifted.
#pragma once

#include <cstdint>

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"
#include "spans.hpp"

namespace eim::benchmark {

/// `options.metrics` must be set. Spans are tagged `solve`; the caller opens
/// the enclosing "solve" span.
[[nodiscard]] eim_impl::EimResult run_layered(gpusim::Device& device, const graph::Graph& g,
                                              graph::DiffusionModel model,
                                              const imm::ImmParams& params,
                                              const eim_impl::EimOptions& options,
                                              SpanRecorder& spans, std::uint32_t solve);

}  // namespace eim::benchmark
