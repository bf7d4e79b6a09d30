#include "common.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string_view>

#include "eim/support/atomic_write.hpp"
#include "eim/support/json.hpp"
#include "eim/support/profiler.hpp"

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

namespace eim::bench {

namespace {

/// Accumulates one eim.metrics.v3 snapshot per finished benchmark cell and
/// writes $EIM_BENCH_JSON when the process exits (destructor of the Meyer
/// singleton). Snapshots (the registry and its wall timers) are serialized
/// eagerly at record time so the cell's registry may die with its run_cell
/// frame. Cell-level modeled timing (seconds / kernel_seconds /
/// transfer_seconds) rides along so tools/bench_diff can gate on
/// modeled-time regressions; an OOM cell carries no timing fields.
class BenchReporter {
 public:
  static BenchReporter& instance() {
    static BenchReporter reporter;
    return reporter;
  }

  void record(std::string id, const support::metrics::MetricsRegistry& registry,
              const Cell& cell) {
    std::ostringstream metrics;
    support::JsonWriter w(metrics);
    registry.write_json(w);
    std::ostringstream wall;
    support::JsonWriter ww(wall);
    registry.write_wall_json(ww);
    const std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(CellRecord{std::move(id), metrics.str(), wall.str(),
                                cell.seconds, cell.wall_seconds,
                                cell.last.kernel_seconds,
                                cell.last.transfer_seconds});
  }

 private:
  BenchReporter() = default;
  ~BenchReporter() { flush(); }

  static const char* tool_name() {
#if defined(__GLIBC__)
    return program_invocation_short_name;
#else
    return "bench";
#endif
  }

  void flush() const {
    const char* path = std::getenv("EIM_BENCH_JSON");
    if (path == nullptr || *path == '\0' || cells_.empty()) return;
    // Atomic publication: a killed sweep leaves the previous report (or
    // nothing), never a torn JSON that tools/bench_diff would choke on.
    // Runs in a static destructor, so failures warn instead of throwing.
    try {
      support::atomic_write_text(path, [&](std::ostream& out) {
        support::JsonWriter w(out);
        w.begin_object();
        w.field("schema", "eim.metrics.v3");
        w.field("tool", tool_name());
        w.begin_array("cells");
        for (const auto& cell : cells_) {
          w.begin_object().field("id", cell.id);
          if (cell.seconds.has_value()) {
            w.field("seconds", *cell.seconds)
                .field("kernel_seconds", cell.kernel_seconds)
                .field("transfer_seconds", cell.transfer_seconds);
          }
          if (cell.wall_seconds.has_value()) {
            w.field("wall_seconds", *cell.wall_seconds);
          }
          w.key("metrics").raw_value(cell.metrics_json);
          w.key("wall").raw_value(cell.wall_json);
          w.end_object();
        }
        w.end_array();
        w.end_object();
        out << '\n';
      });
    } catch (const support::Error& e) {
      std::fprintf(stderr, "warning: cannot write EIM_BENCH_JSON=%s: %s\n", path,
                   e.what());
    }
  }

  struct CellRecord {
    std::string id;
    std::string metrics_json;  ///< pre-serialized registry snapshot
    std::string wall_json;     ///< pre-serialized registry wall timers
    std::optional<double> seconds;  ///< mean modeled seconds; nullopt = OOM
    std::optional<double> wall_seconds;  ///< mean host wall clock (noisy)
    double kernel_seconds = 0.0;    ///< last successful run's kernel time
    double transfer_seconds = 0.0;
  };

  mutable std::mutex mu_;
  std::vector<CellRecord> cells_;
};

/// Per-dataset heartbeat on stderr so long sweeps show liveness without
/// polluting the table output on stdout.
void table_progress(std::string_view abbrev) {
  std::fprintf(stderr, "[done %.*s]", static_cast<int>(abbrev.size()), abbrev.data());
  std::fflush(stderr);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

BenchEnv load_env() {
  BenchEnv env;

  if (const char* subset = std::getenv("EIM_BENCH_DATASETS")) {
    for (const auto& abbrev : split_csv(subset)) {
      if (const auto spec = graph::find_dataset(abbrev)) {
        env.datasets.push_back(*spec);
      } else {
        std::fprintf(stderr, "warning: unknown dataset '%s' ignored\n", abbrev.c_str());
      }
    }
  }
  if (env.datasets.empty()) {
    const auto all = graph::all_datasets();
    env.datasets.assign(all.begin(), all.end());
  }

  if (const char* runs = std::getenv("EIM_BENCH_RUNS")) {
    env.runs = static_cast<std::uint32_t>(std::max(1, std::atoi(runs)));
  }
  if (const char* fast = std::getenv("EIM_BENCH_FAST")) {
    env.fast = std::string(fast) == "1";
  }
  if (const char* mem = std::getenv("EIM_BENCH_MEMORY_MB")) {
    env.memory_mb = static_cast<std::uint64_t>(std::max(1, std::atoi(mem)));
  }

  std::printf("# datasets=%zu runs=%u fast=%d device=%llu MB (simulated)\n",
              env.datasets.size(), env.runs, env.fast ? 1 : 0,
              static_cast<unsigned long long>(env.memory_mb));
  return env;
}

Cell run_cell(const BenchEnv& env, const graph::Graph& g, const Runner& runner,
              std::string cell_id) {
  if (cell_id.empty()) {
    static std::atomic<std::uint64_t> seq{0};
    cell_id = "cell-" + std::to_string(seq.fetch_add(1)) + "/n=" +
              std::to_string(g.num_vertices()) + "/m=" + std::to_string(g.num_edges());
  }

  // EIM_BENCH_TRACE captures the first cell's first run — one bounded,
  // deterministic representative trace per bench process (tracing every
  // cell would explode the file and collide device-address pids as cells
  // reuse the same stack slot). Written immediately after the cell.
  std::optional<support::trace::TraceRecorder> recorder;
  const char* trace_path = std::getenv("EIM_BENCH_TRACE");
  if (trace_path != nullptr && *trace_path != '\0') {
    static std::mutex trace_mu;
    static bool trace_claimed = false;
    const std::lock_guard<std::mutex> lock(trace_mu);
    if (!trace_claimed) {
      trace_claimed = true;
      recorder.emplace();
    }
  }

  // EIM_BENCH_PROFILE mirrors the trace claim: the first cell to get here
  // owns the process-wide SIGPROF profiler (one ITIMER_PROF per process)
  // for all of its runs.
  bool profiled = false;
  std::optional<support::profiler::SamplingProfiler> stack_sampler;
  const char* profile_path = std::getenv("EIM_BENCH_PROFILE");
  if (profile_path != nullptr && *profile_path != '\0') {
    static std::mutex profile_mu;
    static bool profile_claimed = false;
    const std::lock_guard<std::mutex> lock(profile_mu);
    if (!profile_claimed) {
      profile_claimed = true;
      profiled = true;
      if (support::profiler::SamplingProfiler::supported()) {
        stack_sampler.emplace(support::profiler::SamplingProfiler::Options{});
        stack_sampler->start();
      }
    }
  }

  Cell cell;
  support::metrics::MetricsRegistry registry;
  support::RunningStat stat;
  support::RunningStat wall_stat;
  bool oom = false;
  for (std::uint32_t run = 0; run < env.runs; ++run) {
    gpusim::Device device(gpusim::make_benchmark_device(env.memory_mb));
    // Every backend reports its memory high-water mark, even the ones that
    // take no EimOptions (run_eim re-attaches the same instruments).
    device.memory().attach_metrics(&registry.gauge("device.peak_bytes"),
                                   &registry.counter("device.alloc_events"));
    support::trace::TraceRecorder* trace =
        recorder.has_value() && run == 0 ? &*recorder : nullptr;
    if (trace != nullptr) trace->register_process(cell_id, &device);
    const auto wall_begin = std::chrono::steady_clock::now();
    try {
      cell.last = runner(device, g, registry, trace, run);
    } catch (const support::DeviceOutOfMemoryError& e) {
      registry.counter("bench.oom_runs").add();
      // Record how far over budget the cell was, so the EIM_BENCH_JSON
      // report can say "needed X more bytes" instead of just "OOM".
      registry.gauge("bench.oom_requested_bytes").set(e.requested_bytes());
      registry.gauge("bench.oom_available_bytes").set(e.available_bytes());
      registry.gauge("bench.oom_shortfall_bytes")
          .set(e.requested_bytes() > e.available_bytes()
                   ? e.requested_bytes() - e.available_bytes()
                   : 0);
      cell.seconds.reset();
      oom = true;
      break;
    }
    wall_stat.push(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 wall_begin)
                       .count());
    stat.push(cell.last.device_seconds);
  }
  if (!oom) {
    cell.seconds = stat.mean();
    cell.wall_seconds = wall_stat.mean();
  }
  if (recorder.has_value()) {
    try {
      support::atomic_write_text(
          trace_path, [&](std::ostream& out) { recorder->write_chrome_trace(out); });
    } catch (const support::Error& e) {
      std::fprintf(stderr, "warning: cannot write EIM_BENCH_TRACE=%s: %s\n", trace_path,
                   e.what());
    }
  }
  if (profiled) {
    if (stack_sampler.has_value()) stack_sampler->stop();
    try {
      support::atomic_write_text(profile_path, [&](std::ostream& out) {
        if (stack_sampler.has_value()) {
          stack_sampler->write_folded(out);
        } else {
          out << "# profiler-unsupported\n";
        }
      });
    } catch (const support::Error& e) {
      std::fprintf(stderr, "warning: cannot write EIM_BENCH_PROFILE=%s: %s\n",
                   profile_path, e.what());
    }
  }
  BenchReporter::instance().record(std::move(cell_id), registry, cell);
  return cell;
}

void record_cell(std::string cell_id,
                 const support::metrics::MetricsRegistry& registry,
                 const Cell& cell) {
  BenchReporter::instance().record(std::move(cell_id), registry, cell);
}

Runner eim_runner(graph::DiffusionModel model, imm::ImmParams params,
                  eim_impl::EimOptions options) {
  return [model, params, options](gpusim::Device& device, const graph::Graph& g,
                                  support::metrics::MetricsRegistry& registry,
                                  support::trace::TraceRecorder* trace,
                                  std::uint32_t run) {
    imm::ImmParams p = params;
    p.rng_seed += run;
    eim_impl::EimOptions o = options;
    o.metrics = &registry;
    o.trace = trace;
    return eim_impl::run_eim(device, g, model, p, o);
  };
}

Runner gim_runner(graph::DiffusionModel model, imm::ImmParams params) {
  return [model, params](gpusim::Device& device, const graph::Graph& g,
                         support::metrics::MetricsRegistry& /*registry*/,
                         support::trace::TraceRecorder* /*trace*/,
                         std::uint32_t run) {
    imm::ImmParams p = params;
    p.rng_seed += run;
    return baselines::run_gim(device, g, model, p);
  };
}

Runner curipples_runner(graph::DiffusionModel model, imm::ImmParams params) {
  return [model, params](gpusim::Device& device, const graph::Graph& g,
                         support::metrics::MetricsRegistry& /*registry*/,
                         support::trace::TraceRecorder* /*trace*/,
                         std::uint32_t run) {
    imm::ImmParams p = params;
    p.rng_seed += run;
    return baselines::run_curipples(device, g, model, p);
  };
}

void print_k_sweep(const BenchEnv& env, graph::DiffusionModel model,
                   const std::vector<std::uint32_t>& ks, double eps) {
  std::vector<std::string> header{"Dataset"};
  for (const std::uint32_t k : ks) header.push_back("k=" + std::to_string(env.clamp_k(k)));
  support::TextTable table(header);

  for (const auto& spec : env.datasets) {
    const graph::Graph g = graph::build_dataset(spec, model);
    std::vector<std::string> row{std::string(spec.abbrev)};
    for (const std::uint32_t k : ks) {
      imm::ImmParams params;
      params.k = env.clamp_k(k);
      params.epsilon = env.clamp_eps(eps);
      const std::string id = std::string(spec.abbrev) + "/k=" +
                             std::to_string(params.k) + "/eps=" +
                             support::TextTable::num(params.epsilon, 2);
      const Cell eim_cell = run_cell(env, g, eim_runner(model, params), "eim/" + id);
      const Cell gim_cell = run_cell(env, g, gim_runner(model, params), "gim/" + id);
      row.push_back(speedup_cell(gim_cell, eim_cell));
    }
    table.add_row(std::move(row));
    table_progress(spec.abbrev);
  }
  table.print(std::cout);
}

void print_eps_sweep(const BenchEnv& env, graph::DiffusionModel model,
                     const std::vector<double>& epss, std::uint32_t k) {
  std::vector<std::string> header{"Dataset"};
  for (const double eps : epss) {
    header.push_back("eps=" + support::TextTable::num(env.clamp_eps(eps), 2));
  }
  support::TextTable table(header);

  for (const auto& spec : env.datasets) {
    const graph::Graph g = graph::build_dataset(spec, model);
    std::vector<std::string> row{std::string(spec.abbrev)};
    for (const double eps : epss) {
      imm::ImmParams params;
      params.k = env.clamp_k(k);
      params.epsilon = env.clamp_eps(eps);
      const std::string id = std::string(spec.abbrev) + "/k=" +
                             std::to_string(params.k) + "/eps=" +
                             support::TextTable::num(params.epsilon, 2);
      const Cell eim_cell = run_cell(env, g, eim_runner(model, params), "eim/" + id);
      const Cell gim_cell = run_cell(env, g, gim_runner(model, params), "gim/" + id);
      row.push_back(speedup_cell(gim_cell, eim_cell));
    }
    table.add_row(std::move(row));
    table_progress(spec.abbrev);
  }
  table.print(std::cout);
}

std::string speedup_cell(const Cell& baseline, const Cell& eim) {
  if (!eim.seconds.has_value()) return "OOM";
  if (!baseline.seconds.has_value()) {
    return "OOM/" + support::TextTable::num(*eim.seconds, 2);
  }
  return support::TextTable::num(*baseline.seconds / *eim.seconds, 2);
}

}  // namespace eim::bench
