// eim_benchmark: the measuring binary behind benchmark/run.sh (README.md).
//
//   eim_benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke]
//   eim_benchmark compare A.json B.json [--bench BENCHMARK.json]
//
// One process runs one workload as a closed loop: a single client issues
// solves back to back, each with an RNG seed derived from --seed, until T
// seconds have passed and at least 10 solves are done (--smoke: exactly 2
// solves and one timed set-up, the harness self-test). The process starts no
// threads of its own; every solve runs on the library's global ThreadPool.
// It prints every metric by name with its unit, then, as its last line, one
// JSON object {"correct","attempted","failed","metrics"}; it exits 1 when a
// correctness check fails.
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// attached. --trace 1 alternates solves through the layered pipeline
// (layered.hpp, spans + MetricsRegistry) with plain ones and reports the
// per-layer metrics, including what tracing itself cost; its spans go to
// benchmark/build/spans/<workload>.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compare.hpp"
#include "eim/diffusion/forward.hpp"
#include "eim/eim/checkpoint.hpp"
#include "eim/eim/multi_node.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/gpusim/cluster.hpp"
#include "eim/graph/draw_plan.hpp"
#include "eim/support/atomic_write.hpp"
#include "eim/support/error.hpp"
#include "eim/support/json.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/thread_pool.hpp"
#include "layered.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace eim::benchmark {

namespace {

using Clock = std::chrono::steady_clock;
using eim_impl::EimOptions;
using eim_impl::EimResult;

constexpr double kMiB = 1024.0 * 1024.0;
/// Monte Carlo check of solves 0..kMcSolves-1, outside the timed region.
constexpr std::uint32_t kMcSolves = 3;
/// Every run scores its seeds against the same simulated cascades (common
/// random numbers), so `spread` moves with the seed sets, not with the
/// Monte Carlo noise of one run.
constexpr std::uint64_t kMcSeed = 0x4d435350u;  // "MCSP"
/// Solves a run does at least, however short --seconds is.
constexpr std::uint32_t kMinSolves = 10;
constexpr std::uint32_t kSmokeSolves = 2;
/// Timed set-ups: at least kMinSetups (one with --smoke), then more until
/// they add up to kSetupSeconds (at most kMaxSetups).
constexpr std::uint32_t kMinSetups = 3;
constexpr double kSetupSeconds = 1.0;
constexpr std::uint32_t kMaxSetups = 30;
/// Relative differences allowed between a traced solve's modeled clock and
/// a plain solve's for the same seed. Transfers are deterministic unless sets
/// spill, since eviction follows host thread scheduling. Kernel time follows
/// retry-wave composition, which also follows scheduling: up to ~5% apart
/// measured on the reference host.
constexpr double kTransferTolerance = 1e-9;
constexpr double kSpillTransferTolerance = 0.05;
constexpr double kKernelTolerance = 0.15;

/// Spill blocks and checkpoints go to a per-process directory under here,
/// and the traced run's spans to <kSpansDir>/<workload>.json; both relative
/// to the repository root run.sh runs from.
constexpr const char* kWorkDir = "benchmark/build/work";
constexpr const char* kSpansDir = "benchmark/build/spans";

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Nearest-rank quantile: the ceil(q·n)-th smallest value.
double nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cerr << "check failed: " << what << '\n';
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// One "name value unit" line per metric, then the JSON result line.
  void print(std::ostream& out) const {
    for (const Metric& m : metrics) {
      out << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    }
    support::JsonWriter w(out);
    w.begin_object()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed);
    w.key("metrics").begin_object();
    for (const Metric& m : metrics) {
      w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit);
      w.end_object();
    }
    w.end_object().end_object();
    out << std::endl;
  }
};

/// Empty when `r` holds k distinct in-range seeds from a run that did not
/// degrade; otherwise what is wrong.
std::string seed_problem(const EimResult& r, std::uint32_t k, graph::VertexId n) {
  if (r.degraded) return "run degraded";
  if (r.seeds.size() != k) return "expected " + std::to_string(k) + " seeds";
  std::vector<graph::VertexId> sorted = r.seeds;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate seed";
  }
  if (sorted.back() >= n) return "seed out of range";
  return {};
}

/// FNV-1a (64-bit) over each list's length and seeds, as little-endian u32s.
std::string digest(const std::vector<std::vector<graph::VertexId>>& lists) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](std::uint32_t v) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& seeds : lists) {
    feed(static_cast<std::uint32_t>(seeds.size()));
    for (const graph::VertexId v : seeds) feed(v);
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Points every cluster device's pool instruments at a registry for one
/// solve (run_eim_cluster leaves them to the caller) and detaches them on
/// scope exit, so they never outlive the registry, even when the solve throws.
class ClusterPoolMetrics {
 public:
  ClusterPoolMetrics(gpusim::Cluster& cluster, support::metrics::MetricsRegistry& reg)
      : cluster_(cluster) {
    attach(&reg.gauge("device.peak_bytes"), &reg.counter("device.alloc_events"));
  }
  ~ClusterPoolMetrics() { attach(nullptr, nullptr); }
  ClusterPoolMetrics(const ClusterPoolMetrics&) = delete;
  ClusterPoolMetrics& operator=(const ClusterPoolMetrics&) = delete;

 private:
  void attach(support::metrics::Gauge* peak, support::metrics::Counter* allocs) {
    for (std::uint32_t nd = 0; nd < cluster_.num_nodes(); ++nd) {
      for (std::uint32_t d = 0; d < cluster_.node(nd).num_devices(); ++d) {
        cluster_.node(nd).device(d).memory().attach_metrics(peak, allocs);
      }
    }
  }

  gpusim::Cluster& cluster_;
};

/// Per-run scratch directory for spill blocks and checkpoints, removed on
/// exit so the run leaves nothing behind.
class WorkDir {
 public:
  explicit WorkDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] std::string sub(const char* name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// Everything one workload process holds across its solves.
class Bench {
 public:
  Bench(const Workload& w, const Args& args) : w_(w), args_(args) {
    if (w.cluster) {
      gpusim::ClusterSpec spec;
      spec.num_nodes = kClusterNodes;
      spec.node.num_devices = kDevicesPerNode;
      spec.node.device = device_.spec();
      cluster_.emplace(spec);
    }
    options_.draw_mode = w.draw_mode;
  }

  /// One untimed build, then timed builds until there are kMinSetups of
  /// them and they add up to kSetupSeconds (small graphs build in tens of
  /// milliseconds, so they get more samples). Returns the median timed
  /// build; the traced run also records each build's steps as spans.
  double set_up() {
    SpanRecorder* spans = args_.trace ? &spans_ : nullptr;
    const std::uint32_t min_setups = args_.smoke ? 1 : kMinSetups;
    std::vector<double> times;
    double total = 0.0;
    for (std::uint32_t s = 0;
         s <= min_setups || (total < kSetupSeconds && s <= kMaxSetups); ++s) {
      g_ = graph::Graph();  // drop the previous build: peak RSS holds one graph
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(spans, "setup", s);
        g_ = build_graph(w_, spans, s);
      }
      if (s > 0) {
        times.push_back(seconds_since(t0));
        total += times.back();
      }
    }
    setups_timed_ = static_cast<std::uint32_t>(times.size());
    std::cout << "# timed set-ups " << setups_timed_ << '\n';
    return median(times);
  }

  /// Untimed single-device solve 0 without spill: the reference the spill
  /// and cluster workloads must reproduce, and the footprint the spill
  /// budgets are sized from. Then one untimed warm-up solve of the
  /// workload's own path when it differs from the reference.
  void warm_up(Report& report) {
    EimOptions plain;
    plain.draw_mode = w_.draw_mode;
    reference_ = eim_impl::run_eim(device_, g_, w_.model, params(0), plain);
    const std::string problem = seed_problem(reference_, w_.k, g_.num_vertices());
    report.check(problem.empty(), "reference solve: " + problem);
    if (w_.spill_ckpt) {
      work_.emplace(std::filesystem::path(kWorkDir) /
                    (std::string(w_.name) + "-" + std::to_string(getpid())));
      options_.spill.policy = eim_impl::SpillPolicy::Spill;
      options_.spill.device_budget_bytes = reference_.rrr_bytes / 4;
      options_.spill.host_budget_bytes = reference_.rrr_bytes / 8;
      options_.spill.dir = work_->sub("spill");
      options_.checkpoint_dir = work_->sub("checkpoint");
    }
    if (w_.spill_ckpt || w_.cluster) (void)solve(params(0), options_);
  }

  [[nodiscard]] imm::ImmParams params(std::uint32_t i) const {
    return solve_params(w_, args_.seed, i);
  }

  EimResult solve(const imm::ImmParams& p, const EimOptions& o) {
    if (cluster_.has_value()) {
      return eim_impl::run_eim_cluster(*cluster_, g_, w_.model, p, o);
    }
    return eim_impl::run_eim(device_, g_, w_.model, p, o);
  }

  void run_untraced(Report& report);
  void run_traced(Report& report);

 private:
  using PerSolve = std::map<std::string, std::vector<double>>;

  [[nodiscard]] bool keep_going(std::uint32_t done, Clock::time_point t0) const {
    if (args_.smoke) return done < kSmokeSolves;
    return done < kMinSolves || seconds_since(t0) < args_.seconds;
  }

  struct TracedSolve {
    EimResult result;
    double wall = 0.0;
    double busy = 0.0;  ///< wall seconds inside sample_to and select calls
  };

  /// One traced solve through the layered pipeline (or, for the cluster
  /// workload, one run_eim_cluster call inside a span) under a root span
  /// called `root`; records its layer metrics into `per` unless null.
  TracedSolve traced_solve(const imm::ImmParams& p, const EimOptions& o, const char* root,
                           PerSolve* per);

  const Workload& w_;
  const Args& args_;
  graph::Graph g_;
  gpusim::Device device_{gpusim::make_benchmark_device(kDeviceMemoryMb)};
  std::optional<gpusim::Cluster> cluster_;
  EimOptions options_;
  EimResult reference_;
  std::optional<WorkDir> work_;
  SpanRecorder spans_;
  std::uint32_t next_span_solve_ = 0;
  std::uint32_t setups_timed_ = 0;
};

void Bench::run_untraced(Report& report) {
  const graph::VertexId n = g_.num_vertices();
  std::vector<double> walls;
  std::vector<double> modeled;
  std::vector<double> peaks;
  std::vector<std::vector<graph::VertexId>> seed_lists;
  std::vector<std::pair<std::uint32_t, EimResult>> mc_solves;  ///< (solve index, result)
  std::vector<bool> bad;
  std::uint64_t last_theta = 0;

  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; keep_going(i, t0); ++i) {
    const imm::ImmParams p = params(i);
    bad.push_back(false);
    ++report.attempted;
    EimResult r;
    const auto s0 = Clock::now();
    try {
      r = solve(p, options_);
    } catch (const std::exception& e) {
      bad[i] = true;
      report.check(false, "solve " + std::to_string(i) + " threw: " + e.what());
      continue;
    }
    walls.push_back(seconds_since(s0));
    modeled.push_back(r.device_seconds);
    peaks.push_back(static_cast<double>(r.peak_device_bytes) / kMiB);
    last_theta = r.num_sets;
    const std::string problem = seed_problem(r, w_.k, n);
    if (!problem.empty()) {
      bad[i] = true;
      report.check(false, "solve " + std::to_string(i) + ": " + problem);
    }
    if (i == 0 && (w_.spill_ckpt || w_.cluster) && r.seeds != reference_.seeds) {
      bad[i] = true;
      report.check(false,
                   "solve 0 seeds differ from the single-device unconstrained run");
    }
    if (i < kDigestSolves) seed_lists.push_back(r.seeds);
    if (i < kMcSolves) mc_solves.emplace_back(i, std::move(r));
  }
  std::cout << "# solves " << walls.size() << " in " << seconds_since(t0) << " s\n";

  // Ground truth for the first solves, outside the timed region: forward
  // Monte Carlo spread, one solve per pool task.
  std::vector<diffusion::SpreadEstimate> estimates(mc_solves.size());
  support::ThreadPool::global().parallel_for(
      0, estimates.size(),
      [&](std::size_t j) {
        estimates[j] = diffusion::estimate_spread(g_, w_.model, mc_solves[j].second.seeds,
                                                  w_.mc_trials, kMcSeed);
      },
      1);
  std::vector<double> mc;
  for (std::size_t j = 0; j < estimates.size(); ++j) {
    const auto& [i, r] = mc_solves[j];
    const double truth = estimates[j].mean;
    mc.push_back(truth);
    const bool close = std::abs(r.estimated_spread - truth) <= w_.epsilon * truth;
    if (!close) bad[i] = true;
    report.check(close, "solve " + std::to_string(i) + ": IMM estimate " +
                            std::to_string(r.estimated_spread) + " vs Monte Carlo " +
                            std::to_string(truth));
    std::cout << "# solve " << i << ": IMM estimate " << r.estimated_spread
              << ", Monte Carlo " << truth << " (sd " << estimates[j].stddev << ", "
              << estimates[j].trials << " trials)\n";
  }

  if (seed_lists.size() == kDigestSolves) {
    const std::string got = digest(seed_lists);
    std::cout << "# digest of solves 0-" << kDigestSolves - 1 << ": " << got << '\n';
    const std::string_view want = args_.seed == kDefaultSeed ? w_.digest : "";
    if (!want.empty() && got != want) {
      std::fill(bad.begin(), bad.begin() + kDigestSolves, true);
      report.check(false, "seed digest " + got + " != recorded " + std::string(want));
    }
  }

  if (w_.spill_ckpt && last_theta > 0) {
    try {
      const eim_impl::CheckpointState ckpt =
          eim_impl::load_checkpoint(options_.checkpoint_dir);
      report.check(ckpt.lengths.size() == last_theta,
                   "final checkpoint holds " + std::to_string(ckpt.lengths.size()) +
                       " sets, expected theta " + std::to_string(last_theta));
    } catch (const std::exception& e) {
      report.check(false, std::string("final checkpoint does not load: ") + e.what());
    }
  }

  report.failed = static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
  report.add("solve_s_p50", median(walls), "s");
  report.add("solve_s_p75", nearest_rank(walls, 0.75), "s");
  report.add("modeled_s_p50", median(modeled), "s");
  report.add("peak_device_mb", median(peaks), "MiB");
  report.add("spread", median(mc), "vertices");
  report.add("ok_ratio", ratio(static_cast<double>(report.attempted - report.failed),
                               static_cast<double>(report.attempted)),
             "ratio");
}

Bench::TracedSolve Bench::traced_solve(const imm::ImmParams& p, const EimOptions& o,
                                       const char* root, PerSolve* per) {
  const std::uint32_t id = next_span_solve_++;
  support::metrics::MetricsRegistry reg;
  EimOptions traced = o;
  traced.metrics = &reg;
  EimResult r;
  double communication = 0.0;
  int root_id = -1;
  {
    std::optional<ClusterPoolMetrics> pools;
    if (cluster_.has_value()) pools.emplace(*cluster_, reg);
    const ScopedSpan span(&spans_, root, id);
    root_id = span.id();
    if (cluster_.has_value()) {
      const ScopedSpan run(&spans_, "cluster.run", id);
      const eim_impl::MultiNodeResult mr =
          eim_impl::run_eim_cluster(*cluster_, g_, w_.model, p, traced);
      communication = mr.communication_seconds;
      r = mr;
    } else {
      r = run_layered(device_, g_, w_.model, p, traced, spans_, id);
    }
  }
  // Both drivers time their sample_to and select calls into these phases.
  const support::metrics::PhaseTimer& sample = reg.phase("sample");
  const support::metrics::PhaseTimer& select = reg.phase("select");
  const Span& s = spans_.spans()[static_cast<std::size_t>(root_id)];
  const TracedSolve out{r, s.end - s.start, sample.wall_seconds() + select.wall_seconds()};
  if (per == nullptr) return out;

  const auto count = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const auto self = [&](const char* name) { return spans_.self_seconds(name, id); };
  const auto add = [per](const char* name, double v) { (*per)[name].push_back(v); };
  const double committed = count("sampler.samples_committed");

  add("encoding.pack_csc_s", self("encoding.pack_csc"));
  add("encoding.csc_ratio", ratio(static_cast<double>(r.network_bytes),
                                  static_cast<double>(r.network_raw_bytes)));
  add("encoding.rrr_ratio",
      ratio(static_cast<double>(r.rrr_bytes), static_cast<double>(r.rrr_raw_bytes)));
  add("gpusim.kernel_s", r.kernel_seconds);
  add("gpusim.transfer_s", r.transfer_seconds);
  add("gpusim.alloc_events", count("device.alloc_events"));
  add("sampler.construct_s", self("sampler.construct"));
  add("sampler.teardown_s", self("teardown"));
  add("sampler.wall_s", sample.wall_seconds());
  add("sampler.sets_per_s", ratio(committed, sample.wall_seconds()));
  add("sampler.modeled_s", sample.modeled_seconds());
  add("sampler.kept_ratio",
      ratio(committed, committed + count("sampler.singleton_regens")));
  add("sampler.commit_reject_ratio", ratio(count("rrr.commit_rejects"), committed));
  add("sampler.waves", count("sampler.waves"));
  add("sampler.draws_skipped", count("sampler.draws_skipped"));
  add("sampler.alias_picks", count("sampler.alias_picks"));
  add("rrr.regrows", count("rrr.regrow_r") + count("rrr.regrow_o"));
  add("rrr.claim_cas_retries", count("rrr.claim_cas_retries"));
  add("selector.wall_s", select.wall_seconds());
  add("selector.modeled_s", select.modeled_seconds());
  add("selector.calls", count("selector.select_calls"));
  add("selector.reread_ratio",
      ratio(count("selector.elements_decoded"), static_cast<double>(r.total_elements)));
  add("imm.rounds", r.estimation_rounds);
  add("imm.theta", static_cast<double>(r.num_sets));
  add("spill.evicted_sets", count("spill.evicted_sets"));
  add("spill.compress_ratio",
      ratio(count("spill.evicted_bytes_compressed"), count("spill.evicted_bytes_raw")));
  add("spill.disk_writes", count("spill.disk_writes"));
  add("spill.disk_reads", count("spill.disk_reads"));
  add("spill.staging_hit_ratio",
      ratio(count("spill.staging_hits"), count("spill.fetches")));
  add("spill.io_retries", count("spill.io_retries"));
  add("checkpoint.export_s", self("checkpoint.export"));
  add("checkpoint.save_s", self("checkpoint.save"));
  add("checkpoint.mb_written", count("checkpoint.bytes_written") / kMiB);
  add("cluster.wall_s", self("cluster.run"));
  add("cluster.communication_s", communication);
  add("cluster.allreduces", count("cluster.count_allreduces"));
  add("cluster.pick_exchanges", count("cluster.pick_exchanges"));
  add("trace.unattributed_ratio", ratio(spans_.self_seconds(root_id), out.wall));
  return out;
}

/// Empty when a traced solve did the same work as the plain solve of the
/// same seed; otherwise how the traced pipeline has drifted from the library.
std::string drift_problem(const EimResult& traced, const EimResult& plain, bool spill) {
  if (traced.seeds != plain.seeds) return "seeds differ from the plain solve's";
  if (traced.num_sets != plain.num_sets) return "theta differs from the plain solve's";
  if (traced.total_elements != plain.total_elements ||
      traced.estimation_rounds != plain.estimation_rounds ||
      traced.network_bytes != plain.network_bytes) {
    return "elements, rounds or staged network bytes differ from the plain solve's";
  }
  const auto apart = [](double x, double y, double tolerance) {
    return std::abs(x - y) > tolerance * y;
  };
  if (apart(traced.transfer_seconds, plain.transfer_seconds,
            spill ? kSpillTransferTolerance : kTransferTolerance) ||
      apart(traced.kernel_seconds, plain.kernel_seconds, kKernelTolerance)) {
    return "modeled transfer/kernel seconds " + std::to_string(traced.transfer_seconds) +
           "/" + std::to_string(traced.kernel_seconds) + " vs the plain solve's " +
           std::to_string(plain.transfer_seconds) + "/" +
           std::to_string(plain.kernel_seconds);
  }
  return {};
}

void Bench::run_traced(Report& report) {
  const graph::VertexId n = g_.num_vertices();
  PerSolve per;
  std::vector<double> traced_walls;
  std::vector<double> plain_walls;

  EimOptions unconstrained;
  unconstrained.draw_mode = w_.draw_mode;
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; keep_going(i, t0); ++i) {
    const imm::ImmParams p = params(i);
    const std::string tag = "solve " + std::to_string(i);
    // Interleave so drift on the host lands on both sides equally.
    std::optional<TracedSolve> traced;
    std::optional<EimResult> plain;
    for (int side = 0; side < 2; ++side) {
      const bool do_traced = (side == 0) == (i % 2 == 0);
      ++report.attempted;
      try {
        if (do_traced) {
          traced = traced_solve(p, options_, "solve", &per);
          if (w_.spill_ckpt) {
            // Same seed with no device budget: the spill wall tax's base.
            ++report.attempted;
            const TracedSolve base =
                traced_solve(p, unconstrained, "solve.unconstrained", nullptr);
            per["spill.wall_tax_ratio"].push_back(ratio(traced->busy, base.busy));
            if (base.result.seeds != traced->result.seeds) {
              ++report.failed;
              report.check(false, tag + ": budgeted seeds differ from the unconstrained run");
            }
          }
        } else {
          const auto s0 = Clock::now();
          plain = solve(p, options_);
          plain_walls.push_back(seconds_since(s0));
        }
      } catch (const std::exception& e) {
        ++report.failed;
        report.check(false, tag + " threw: " + e.what());
      }
    }
    if (!traced.has_value() || !plain.has_value()) continue;
    traced_walls.push_back(traced->wall);
    const EimResult& t = traced->result;
    std::string problem = seed_problem(t, w_.k, n);
    if (problem.empty()) problem = drift_problem(t, *plain, w_.spill_ckpt);
    if (!problem.empty()) {
      ++report.failed;
      report.check(false, tag + ": " + problem);
    }
  }
  std::cout << "# traced solves " << traced_walls.size() << " in " << seconds_since(t0)
            << " s\n";
  per["trace.overhead_ratio"].push_back(median(traced_walls) / median(plain_walls) - 1.0);
  per["graph.draw_plan_mb"].push_back(static_cast<double>(g_.draw_plan()->bytes()) /
                                      kMiB);
  for (std::uint32_t s = 1; s <= setups_timed_; ++s) {
    per["graph.generate_s"].push_back(spans_.self_seconds("graph.generate", s));
    per["graph.csc_s"].push_back(spans_.self_seconds("graph.csc", s));
    per["graph.weights_s"].push_back(spans_.self_seconds("graph.weights", s));
    per["graph.draw_plan_s"].push_back(spans_.self_seconds("graph.draw_plan", s));
  }

  static constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
      {"graph.generate_s", "s"},
      {"graph.csc_s", "s"},
      {"graph.weights_s", "s"},
      {"graph.draw_plan_s", "s"},
      {"graph.draw_plan_mb", "MiB"},
      {"encoding.pack_csc_s", "s"},
      {"encoding.csc_ratio", "ratio"},
      {"encoding.rrr_ratio", "ratio"},
      {"gpusim.kernel_s", "s"},
      {"gpusim.transfer_s", "s"},
      {"gpusim.alloc_events", "count"},
      {"sampler.construct_s", "s"},
      {"sampler.teardown_s", "s"},
      {"sampler.wall_s", "s"},
      {"sampler.sets_per_s", "1/s"},
      {"sampler.modeled_s", "s"},
      {"sampler.kept_ratio", "ratio"},
      {"sampler.commit_reject_ratio", "ratio"},
      {"sampler.waves", "count"},
      {"sampler.draws_skipped", "count"},
      {"sampler.alias_picks", "count"},
      {"rrr.regrows", "count"},
      {"rrr.claim_cas_retries", "count"},
      {"selector.wall_s", "s"},
      {"selector.modeled_s", "s"},
      {"selector.calls", "count"},
      {"selector.reread_ratio", "ratio"},
      {"imm.rounds", "count"},
      {"imm.theta", "count"},
      {"spill.evicted_sets", "count"},
      {"spill.compress_ratio", "ratio"},
      {"spill.disk_writes", "count"},
      {"spill.disk_reads", "count"},
      {"spill.staging_hit_ratio", "ratio"},
      {"spill.io_retries", "count"},
      {"spill.wall_tax_ratio", "ratio"},
      {"checkpoint.export_s", "s"},
      {"checkpoint.save_s", "s"},
      {"checkpoint.mb_written", "MiB"},
      {"cluster.wall_s", "s"},
      {"cluster.communication_s", "s"},
      {"cluster.allreduces", "count"},
      {"cluster.pick_exchanges", "count"},
      {"trace.unattributed_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    report.add(name, median(per[name]), unit);
  }
  EIM_CHECK_MSG(per.size() == std::size(kLayerMetrics),
                "a recorded layer metric is not listed");

  {
    std::filesystem::create_directories(kSpansDir);
    const std::string out = std::string(kSpansDir) + "/" + std::string(w_.name) + ".json";
    support::atomic_write_text(out, [&](std::ostream& os) { spans_.write_chrome_trace(os); });
    std::cout << "# spans written to " << out << '\n';
  }
}

int usage() {
  std::cerr << "usage: eim_benchmark --workload W [--seed S] [--seconds T]\n"
               "                     [--trace 0|1] [--smoke]\n"
               "       eim_benchmark compare A.json B.json [--bench BENCHMARK.json]\n"
               "workloads:";
  for (const Workload& w : all_workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) return usage();
  Report report;
  Bench bench(*w, args);
  const double setup_s = bench.set_up();
  bench.warm_up(report);
  if (args.trace) {
    bench.run_traced(report);
  } else {
    report.add("setup_s", setup_s, "s");
    bench.run_untraced(report);
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  report.print(std::cout);
  return report.correct ? 0 : 1;
}

}  // namespace

}  // namespace eim::benchmark

int main(int argc, char** argv) {
  using namespace eim::benchmark;
  std::vector<std::string> argv_s(argv + 1, argv + argc);
  try {
    if (!argv_s.empty() && argv_s[0] == "compare") {
      if (argv_s.size() != 3 && !(argv_s.size() == 5 && argv_s[3] == "--bench")) {
        return usage();
      }
      return compare_passes(argv_s[1], argv_s[2],
                            argv_s.size() == 5 ? argv_s[4] : "BENCHMARK.json");
    }
    Args args;
    for (std::size_t i = 0; i < argv_s.size(); ++i) {
      const std::string& flag = argv_s[i];
      if (flag == "--smoke") {
        args.smoke = true;
        continue;
      }
      if (i + 1 >= argv_s.size()) return usage();
      const std::string& value = argv_s[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        args.trace = value == "1";
      } else {
        return usage();
      }
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "eim_benchmark: " << e.what() << '\n';
    return 1;
  }
}
