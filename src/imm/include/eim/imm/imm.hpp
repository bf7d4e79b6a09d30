// Serial reference implementation of IMM (the paper's Algorithm 1).
//
// This is the correctness baseline: single-threaded, uncompressed storage,
// textbook control flow. The GPU-simulated implementations (eIM and the
// baselines) are expected to produce seed sets of matching quality — and,
// because all samplers derive their randomness from the sample index, to
// produce the *identical* collection R for identical parameters, which the
// integration tests exploit.
#pragma once

#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"
#include "eim/imm/rrr_store.hpp"

namespace eim::support::metrics {
class MetricsRegistry;
}  // namespace eim::support::metrics

namespace eim::imm {

/// Stream tag shared by every RRR sampler in the repository: sample i of a
/// run draws from RandomStream(rng_seed, derive_stream(kSampleStreamTag, i,
/// attempt)). Keeping this in one place is what makes the serial and
/// simulated backends bit-identical.
inline constexpr std::uint64_t kSampleStreamTag = 0x52525253u;  // "RRRS"

/// Regeneration cap under source elimination: after this many source-only
/// draws for one slot, the empty set is accepted (prevents livelock on
/// edge-free graphs).
inline constexpr std::uint32_t kMaxRegenerationAttempts = 64;

/// Run IMM end to end: estimate theta, sample, select seeds. An optional
/// registry (not owned, may be null) receives wall timers for the sampling
/// batches and RNG refills — wall-only, so results are unchanged.
[[nodiscard]] ImmResult run_imm_serial(
    const graph::Graph& g, graph::DiffusionModel model, const ImmParams& params,
    support::metrics::MetricsRegistry* metrics = nullptr);

/// Sampling phase only: extend `store` to `target` sets (used by tests and
/// by the estimation loop). Returns the number of singleton samples
/// discarded by source elimination. The optional registry records one
/// "sampler.batch" wall entry for the whole extension (per batch, not per
/// sample — a per-sample clock pair would dwarf small cascades).
[[nodiscard]] std::uint64_t sample_to_target(
    const graph::Graph& g, graph::DiffusionModel model, const ImmParams& params,
    RrrStore& store, std::uint64_t target,
    support::metrics::MetricsRegistry* metrics = nullptr);

}  // namespace eim::imm
