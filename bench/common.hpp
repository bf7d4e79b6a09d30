// Shared harness for the per-table/per-figure benchmark binaries.
//
// Environment knobs (all optional):
//   EIM_BENCH_DATASETS  comma-separated abbreviations ("WV,PG,EE") to subset
//                       the paper's 16 networks;
//   EIM_BENCH_RUNS      repetitions per cell, averaged (default 1 — every
//                       backend is deterministic per seed; the paper's 10-run
//                       averages smooth hardware noise this simulator does
//                       not have. Extra runs vary the RNG seed.);
//   EIM_BENCH_FAST      "1" trades the paper's tightest settings for speed
//                       (eps floors at 0.15, k caps at 60) so the whole
//                       suite smoke-runs in a couple of minutes;
//   EIM_BENCH_MEMORY_MB simulated device memory (default 512 — the 48 GB
//                       A6000 scaled by roughly the dataset scale factor);
//   EIM_BENCH_JSON      path to write an eim.metrics.v3 report with one
//                       metrics snapshot (plus modeled seconds / kernel /
//                       transfer timing) per benchmark cell at process exit
//                       — the input format of tools/bench_diff and
//                       tools/bench_history (see docs/OBSERVABILITY.md);
//   EIM_BENCH_TRACE     path to write a Chrome trace-event file of the first
//                       benchmark cell's first run (a bounded, deterministic
//                       representative trace; open in ui.perfetto.dev);
//   EIM_BENCH_PROFILE   path to write a folded-stack sampling profile of the
//                       first benchmark cell (same first-cell claim as
//                       EIM_BENCH_TRACE; feed to tools/prof_report).
//                       Writes a '# profiler-unsupported' marker on
//                       platforms without backtrace(). Wall-only: modeled
//                       results are bit-identical with or without it.
//
// Every cell's envelope entry carries its registry's hot-path wall timers
// under "wall" (eIM cells record them; baselines leave the object empty).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "eim/baselines/curipples.hpp"
#include "eim/baselines/gim.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/registry.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/stats.hpp"
#include "eim/support/table.hpp"
#include "eim/support/trace.hpp"

namespace eim::bench {

struct BenchEnv {
  std::vector<graph::DatasetSpec> datasets;
  std::uint32_t runs = 1;
  bool fast = false;
  std::uint64_t memory_mb = 512;

  [[nodiscard]] double clamp_eps(double eps) const {
    return fast ? std::max(eps, 0.15) : eps;
  }
  [[nodiscard]] std::uint32_t clamp_k(std::uint32_t k) const {
    return fast ? std::min(k, 60u) : k;
  }
};

/// Parse the environment once; prints the effective configuration.
[[nodiscard]] BenchEnv load_env();

/// One benchmark cell: modeled seconds (mean over runs), or nullopt on OOM.
/// `wall_seconds` is the measured host wall-clock mean over the same runs —
/// machine-noisy by nature, reported for trajectory tracking (bench_diff
/// treats it warn-only), never part of the modeled-cost contract.
struct Cell {
  std::optional<double> seconds;
  std::optional<double> wall_seconds;
  eim_impl::EimResult last;  ///< last successful run's full result
};

/// One run of one backend. The registry is the cell's instrumentation sink:
/// eIM wires it through EimOptions::metrics; every backend gets the device
/// pool's high-water mark and allocation events recorded into it. `trace`
/// is non-null only for the run EIM_BENCH_TRACE captures (eIM wires it
/// through EimOptions::trace; baselines ignore it).
using Runner = std::function<eim_impl::EimResult(
    gpusim::Device&, const graph::Graph&, support::metrics::MetricsRegistry&,
    support::trace::TraceRecorder* trace, std::uint32_t run)>;

/// Run `runner` EIM_BENCH_RUNS times on fresh devices; averages modeled
/// time; returns nullopt seconds if any run OOMs (the paper reports OOM if
/// the configuration cannot complete). Each cell's metrics snapshot is
/// recorded under `cell_id` (auto-generated when empty) for the
/// EIM_BENCH_JSON report.
[[nodiscard]] Cell run_cell(const BenchEnv& env, const graph::Graph& g,
                            const Runner& runner, std::string cell_id = {});

/// Record an externally-built cell into the EIM_BENCH_JSON report. For
/// benches whose topology run_cell cannot host (e.g. the multi-node cluster
/// tier builds its own fleet): fill a Cell, pass the registry the run wrote
/// into, and the cell rides the same eim.metrics.v3 envelope.
void record_cell(std::string cell_id,
                 const support::metrics::MetricsRegistry& registry,
                 const Cell& cell);

/// Canonical runners for the three systems (run index perturbs the seed).
[[nodiscard]] Runner eim_runner(graph::DiffusionModel model, imm::ImmParams params,
                                eim_impl::EimOptions options = {});
[[nodiscard]] Runner gim_runner(graph::DiffusionModel model, imm::ImmParams params);
[[nodiscard]] Runner curipples_runner(graph::DiffusionModel model,
                                      imm::ImmParams params);

/// "12.34" speedup cell, or the paper's "OOM/x.xx" form (baseline OOM,
/// eIM's absolute seconds), or "OOM" if eIM itself failed.
[[nodiscard]] std::string speedup_cell(const Cell& baseline, const Cell& eim);

/// Tables 2/4: eIM-over-gIM speedup per dataset while k sweeps (eps fixed).
void print_k_sweep(const BenchEnv& env, graph::DiffusionModel model,
                   const std::vector<std::uint32_t>& ks, double eps);

/// Tables 3/5: eIM-over-gIM speedup per dataset while eps sweeps (k fixed).
void print_eps_sweep(const BenchEnv& env, graph::DiffusionModel model,
                     const std::vector<double>& epss, std::uint32_t k);

}  // namespace eim::bench
