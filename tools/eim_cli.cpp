// eim — command-line influence maximization.
//
// Examples:
//   eim --dataset WV --k 25                         # synthetic wiki-Vote, IC
//   eim --file soc-Epinions1.txt --model lt --k 50  # real SNAP download, LT
//   eim --dataset EE --algo gim --eps 0.1           # run the gIM baseline
//   eim --dataset SPR --devices 4                   # multi-GPU eIM
//   eim --dataset WV --algo serial --verify 500     # CPU reference + MC check
//
// Prints the seed set, the device metrics, and (with --verify N) a forward
// Monte-Carlo estimate of the expected spread over N cascades.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "eim/baselines/curipples.hpp"
#include "eim/baselines/gim.hpp"
#include "eim/diffusion/forward.hpp"
#include "eim/eim/checkpoint.hpp"
#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/multi_node.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/io.hpp"
#include "eim/graph/registry.hpp"
#include "eim/imm/imm.hpp"
#include "eim/support/atomic_write.hpp"
#include "eim/support/error.hpp"
#include "eim/support/json.hpp"
#include "eim/support/snapshot.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/trace.hpp"

namespace {

using namespace eim;

/// Print a one-line machine-parseable error record to stderr and return the
/// exit code mapped from the exception class (docs/RESILIENCE.md):
///   2 = bad arguments, 3 = I/O, 4 = device OOM, 5 = device fault/loss,
///   6 = unrecoverable cluster loss, 1 = anything else.
int report_error(const support::Error& e) {
  support::JsonWriter w(std::cerr);
  w.begin_object()
      .field("error", support::error_kind_for(e))
      .field("exit_code", static_cast<std::uint64_t>(
                              static_cast<unsigned>(support::exit_code_for(e))))
      .field("message", e.what());
  if (const auto* oom = dynamic_cast<const support::DeviceOutOfMemoryError*>(&e)) {
    w.field("requested_bytes", oom->requested_bytes())
        .field("available_bytes", oom->available_bytes());
  }
  if (const auto* quorum = dynamic_cast<const support::ClusterQuorumError*>(&e)) {
    w.field("alive_nodes", static_cast<std::uint64_t>(quorum->alive_nodes()))
        .field("quorum", static_cast<std::uint64_t>(quorum->quorum()));
  }
  w.end_object();
  std::cerr << "\n";
  return support::exit_code_for(e);
}

struct CliOptions {
  std::string dataset;
  std::string file;
  std::string algo = "eim";
  graph::DiffusionModel model = graph::DiffusionModel::IndependentCascade;
  imm::ImmParams params;
  std::uint32_t devices = 1;
  std::uint32_t nodes = 0;  ///< >0 selects the modeled cluster tier
  std::uint32_t devices_per_node = 1;
  std::uint32_t quorum = 1;
  gpusim::ClusterFaultPlan cluster_faults;  ///< --kill-node/--link-fault/--straggler
  std::uint64_t memory_mb = 512;
  std::uint64_t device_mem_budget = 0;  ///< >0 caps the RRR device footprint
  std::string spill_policy;             ///< off|spill ("" = infer)
  std::string spill_dir;                ///< cold-tier directory (default temp)
  std::uint64_t spill_host_budget = 0;  ///< compressed host tier cap (bytes)
  std::uint32_t verify_trials = 0;
  std::string draw_mode = "exact";  ///< exact|skip (eim only)
  bool no_log_encoding = false;
  bool no_source_elim = false;
  bool degrade = false;  ///< DegradePolicy::Degrade (eim only)
  bool json = false;
  std::string metrics_json;  ///< write an eim.metrics.v3 report here ("-" = stdout)
  std::string trace_out;     ///< write a Chrome trace-event file here ("-" = stdout)
  std::string profile_out;   ///< write a folded-stack profile here ("-" = stdout)
  std::uint32_t profile_hz = 97;  ///< sampling frequency for --profile-out
  std::string checkpoint_dir;  ///< round-boundary snapshots land here
  std::string resume_dir;      ///< continue from this directory's snapshot
};

void print_usage() {
  std::puts(
      "usage: eim_cli [options]\n"
      "  --dataset <ABBREV>   synthetic stand-in from the 16-network registry\n"
      "  --file <path>        SNAP edge-list text file (overrides --dataset)\n"
      "  --model ic|lt        diffusion model (default ic)\n"
      "  --algo eim|gim|curipples|serial  (default eim)\n"
      "  --k <n>              seed-set size (default 50)\n"
      "  --eps <x>            approximation parameter (default 0.13)\n"
      "  --seed <n>           RNG seed (default 42)\n"
      "  --devices <n>        simulated GPUs for eIM on one host (default 1;\n"
      "                       eim only; with --nodes use --devices-per-node)\n"
      "  --nodes <n>          modeled cluster: shard eIM over n nodes (eim\n"
      "                       only; see docs/RESILIENCE.md, Cluster failover)\n"
      "  --devices-per-node <n>  simulated GPUs inside each node (default 1)\n"
      "  --quorum <n>         minimum alive nodes (1..nodes); dropping below\n"
      "                       exits with code 6 (cluster_lost) unless\n"
      "                       --degrade\n"
      "  --kill-node <i@o>    fault script: node i dies at collective\n"
      "                       ordinal o (repeatable)\n"
      "  --link-fault <i@o>   fault script: node i's link drops its o-th\n"
      "                       per-link transfer once (repeatable)\n"
      "  --straggler <i@f>    fault script: node i's link runs f x slower\n"
      "                       (repeatable)\n"
      "  --memory-mb <n>      simulated device memory (default 512)\n"
      "  --device-mem-budget <bytes>  cap the RRR collection's device\n"
      "                       footprint; cold sets spill to compressed host\n"
      "                       memory and disk instead of truncating the run\n"
      "                       (implies --spill-policy spill; eim only, per\n"
      "                       device; see docs/RESILIENCE.md)\n"
      "  --spill-policy off|spill  what device OOM does to the RRR store:\n"
      "                       off = fail or degrade as --degrade says (no\n"
      "                       other spill flag allowed), spill = evict cold\n"
      "                       sets down the tier hierarchy (full theta,\n"
      "                       bit-identical seeds); with --degrade the run\n"
      "                       degrades only once the tiers are exhausted\n"
      "  --spill-dir <path>   directory for the disk tier's block files\n"
      "                       (default: a fresh temp directory, removed on\n"
      "                       exit)\n"
      "  --spill-host-budget <bytes>  cap the compressed host tier; colder\n"
      "                       blocks overflow to disk (0 = unlimited)\n"
      "  --verify <trials>    score the seeds with forward Monte-Carlo\n"
      "  --draw-mode exact|skip  how the sampler spends randomness (eim\n"
      "                       only; default exact). exact = one Bernoulli\n"
      "                       draw per scanned in-edge, bit-identical across\n"
      "                       all configurations; skip = geometric skip-ahead\n"
      "                       (IC) / alias-table picks (LT), statistically\n"
      "                       equivalent spread at a fraction of the RNG\n"
      "                       cost (docs/PERFORMANCE.md, Draw efficiency).\n"
      "                       Recorded in checkpoints: a --resume must use\n"
      "                       the writing run's mode\n"
      "  --no-log-encoding    disable the Section 3.1 compression\n"
      "  --no-source-elim     disable the Section 3.4 heuristic\n"
      "  --degrade            on device OOM or quorum loss, stop growing\n"
      "                       theta and return best-effort seeds from the\n"
      "                       committed sets plus the shortfall instead of\n"
      "                       failing (eim only)\n"
      "  --json               print the result as a JSON object\n"
      "  --metrics-json <path|->  write an eim.metrics.v3 run report (phase\n"
      "                       timers, histograms, memory high-water mark,\n"
      "                       commit/regrow counters, hot-path wall timers;\n"
      "                       '-' = stdout; emitted even when the run fails\n"
      "                       or degrades; see docs/OBSERVABILITY.md)\n"
      "  --trace-out <path|->  write a Chrome trace-event / Perfetto span\n"
      "                       trace of the run on the modeled device clock\n"
      "                       ('-' = stdout; open in ui.perfetto.dev)\n"
      "  --profile-out <path|->  sample host wall-clock stacks during the\n"
      "                       run and write a folded-stack profile ('-' =\n"
      "                       stdout; feed to tools/prof_report or a flame\n"
      "                       graph; also enables the metrics `wall`\n"
      "                       section; writes a '# profiler-unsupported'\n"
      "                       marker on platforms without backtrace())\n"
      "  --profile-hz <n>     sampling frequency for --profile-out\n"
      "                       (default 97; prime avoids phase lock)\n"
      "  --checkpoint <dir>   write a crash-safe snapshot at every round\n"
      "                       boundary (eim only; see docs/RESILIENCE.md)\n"
      "  --resume <dir>       continue from <dir>'s snapshot — the final\n"
      "                       seeds are bit-identical to an uninterrupted\n"
      "                       run, even onto a different --devices count;\n"
      "                       keeps checkpointing into <dir> unless\n"
      "                       --checkpoint overrides (eim only)\n"
      "  --list-datasets      print the registry and exit");
}

/// Parse all of `text` as a T no smaller than `min`, or print why not. A
/// sign on an unsigned flag, trailing junk, overflow and NaN all fail.
template <typename T>
bool parse_number(const std::string& flag, std::string_view text, T& out,
                  std::type_identity_t<T> min = T{}) {
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc{} && stop == end && out >= min) return true;
  std::ostringstream floor;
  floor << min;
  std::fprintf(stderr, "error: %s expects a number >= %s, got '%.*s'\n", flag.c_str(),
               floor.str().c_str(), static_cast<int>(text.size()), text.data());
  return false;
}

/// Parse a fault-script operand "<node>@<value>" — e.g. `--kill-node 1@4` —
/// and raise `nodes_named` past `node`.
template <typename T>
bool parse_indexed(const std::string& flag, std::string_view text, std::uint32_t& node,
                   T& value, std::uint64_t& nodes_named) {
  const std::size_t at = text.find('@');
  if (at == std::string_view::npos) {
    std::fprintf(stderr, "error: %s expects <node>@<value>, got '%.*s'\n", flag.c_str(),
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  if (!parse_number(flag, text.substr(0, at), node) ||
      !parse_number(flag, text.substr(at + 1), value)) {
    return false;
  }
  nodes_named = std::max(nodes_named, std::uint64_t{node} + 1);
  return true;
}

/// Parse argv. On nullopt, `exit_code` says why: kExitOk for --help /
/// --list-datasets, kExitBadArgs for malformed input.
std::optional<CliOptions> parse(int argc, char** argv, int& exit_code) {
  CliOptions opt;
  opt.params.k = 50;
  opt.params.epsilon = 0.13;
  exit_code = support::kExitBadArgs;
  std::uint64_t fault_nodes = 0;  // 1 + the highest node a fault script names

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };

    if (arg == "--help" || arg == "-h") {
      print_usage();
      exit_code = support::kExitOk;
      return std::nullopt;
    }
    if (arg == "--list-datasets") {
      exit_code = support::kExitOk;
      for (const auto& spec : graph::all_datasets()) {
        std::printf("%-4.*s %.*s\n", static_cast<int>(spec.abbrev.size()),
                    spec.abbrev.data(), static_cast<int>(spec.name.size()),
                    spec.name.data());
      }
      return std::nullopt;
    }
    const char* value = nullptr;
    if (arg == "--dataset" && (value = next())) {
      opt.dataset = value;
    } else if (arg == "--file" && (value = next())) {
      opt.file = value;
    } else if (arg == "--algo" && (value = next())) {
      opt.algo = value;
    } else if (arg == "--model" && (value = next())) {
      if (std::strcmp(value, "lt") == 0) {
        opt.model = graph::DiffusionModel::LinearThreshold;
      } else if (std::strcmp(value, "ic") != 0) {
        std::fprintf(stderr, "error: unknown model '%s'\n", value);
        return std::nullopt;
      }
    } else if (arg == "--k" && (value = next())) {
      if (!parse_number(arg, value, opt.params.k, 1)) return std::nullopt;
    } else if (arg == "--eps" && (value = next())) {
      if (!parse_number(arg, value, opt.params.epsilon)) return std::nullopt;
      if (!(opt.params.epsilon > 0.0 && opt.params.epsilon < 1.0)) {
        std::fprintf(stderr, "error: --eps must lie strictly between 0 and 1, got '%s'\n",
                     value);
        return std::nullopt;
      }
    } else if (arg == "--seed" && (value = next())) {
      if (!parse_number(arg, value, opt.params.rng_seed)) return std::nullopt;
    } else if (arg == "--devices" && (value = next())) {
      if (!parse_number(arg, value, opt.devices, 1)) return std::nullopt;
    } else if (arg == "--nodes" && (value = next())) {
      if (!parse_number(arg, value, opt.nodes, 1)) return std::nullopt;
    } else if (arg == "--devices-per-node" && (value = next())) {
      if (!parse_number(arg, value, opt.devices_per_node, 1)) return std::nullopt;
    } else if (arg == "--quorum" && (value = next())) {
      if (!parse_number(arg, value, opt.quorum, 1)) return std::nullopt;
    } else if (arg == "--kill-node" && (value = next())) {
      auto& loss = opt.cluster_faults.node_losses.emplace_back();
      if (!parse_indexed(arg, value, loss.node, loss.collective_ordinal, fault_nodes)) {
        return std::nullopt;
      }
    } else if (arg == "--link-fault" && (value = next())) {
      auto& fault = opt.cluster_faults.link_faults.emplace_back();
      if (!parse_indexed(arg, value, fault.node, fault.transfer_ordinal, fault_nodes)) {
        return std::nullopt;
      }
    } else if (arg == "--straggler" && (value = next())) {
      auto& slow = opt.cluster_faults.slowdowns.emplace_back();
      if (!parse_indexed(arg, value, slow.node, slow.factor, fault_nodes)) {
        return std::nullopt;
      }
    } else if (arg == "--memory-mb" && (value = next())) {
      if (!parse_number(arg, value, opt.memory_mb)) return std::nullopt;
    } else if (arg == "--device-mem-budget" && (value = next())) {
      if (!parse_number(arg, value, opt.device_mem_budget)) return std::nullopt;
    } else if (arg == "--spill-policy" && (value = next())) {
      opt.spill_policy = value;
      if (opt.spill_policy != "off" && opt.spill_policy != "spill") {
        std::fprintf(stderr, "error: --spill-policy must be off|spill, got '%s'\n",
                     value);
        return std::nullopt;
      }
    } else if (arg == "--spill-dir" && (value = next())) {
      opt.spill_dir = value;
    } else if (arg == "--spill-host-budget" && (value = next())) {
      if (!parse_number(arg, value, opt.spill_host_budget)) return std::nullopt;
    } else if (arg == "--verify" && (value = next())) {
      if (!parse_number(arg, value, opt.verify_trials)) return std::nullopt;
    } else if (arg == "--draw-mode" && (value = next())) {
      opt.draw_mode = value;
      if (opt.draw_mode != "exact" && opt.draw_mode != "skip") {
        std::fprintf(stderr, "error: --draw-mode must be exact|skip, got '%s'\n",
                     value);
        return std::nullopt;
      }
    } else if (arg == "--no-log-encoding") {
      opt.no_log_encoding = true;
    } else if (arg == "--no-source-elim") {
      opt.no_source_elim = true;
    } else if (arg == "--degrade") {
      opt.degrade = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--metrics-json" && (value = next())) {
      opt.metrics_json = value;
    } else if (arg == "--trace-out" && (value = next())) {
      opt.trace_out = value;
    } else if (arg == "--profile-out" && (value = next())) {
      opt.profile_out = value;
    } else if (arg == "--profile-hz" && (value = next())) {
      if (!parse_number(arg, value, opt.profile_hz, 1)) return std::nullopt;
    } else if (arg == "--checkpoint" && (value = next())) {
      opt.checkpoint_dir = value;
    } else if (arg == "--resume" && (value = next())) {
      opt.resume_dir = value;
    } else if (value == nullptr) {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg.c_str());
      print_usage();
      return std::nullopt;
    }
  }
  if (opt.dataset.empty() && opt.file.empty()) opt.dataset = "WV";
  // Cross-flag ranges; cluster flags without --nodes are refused in main.
  if (opt.nodes > 0 && opt.quorum > opt.nodes) {
    std::fprintf(stderr, "error: --quorum %u exceeds --nodes %u\n", opt.quorum,
                 opt.nodes);
    return std::nullopt;
  }
  if (opt.nodes > 0 && fault_nodes > opt.nodes) {
    std::fprintf(stderr, "error: fault script names node %u of a %u-node cluster\n",
                 static_cast<unsigned>(fault_nodes - 1), opt.nodes);
    return std::nullopt;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  int parse_exit = support::kExitBadArgs;
  const auto parsed = parse(argc, argv, parse_exit);
  if (!parsed) return parse_exit;
  const CliOptions& opt = *parsed;

  if ((!opt.checkpoint_dir.empty() || !opt.resume_dir.empty()) && opt.algo != "eim") {
    return report_error(support::InvalidArgumentError(
        "--checkpoint/--resume require --algo eim (got '" + opt.algo + "')"));
  }
  if (opt.draw_mode == "skip" && opt.algo != "eim") {
    return report_error(support::InvalidArgumentError(
        "--draw-mode skip requires --algo eim (got '" + opt.algo + "')"));
  }
  // Only eIM shards; the other engines would silently run on one device.
  if ((opt.nodes > 0 || opt.devices > 1) && opt.algo != "eim") {
    return report_error(support::InvalidArgumentError(
        "--nodes/--devices require --algo eim (got '" + opt.algo + "')"));
  }
  if (opt.nodes == 0 && (!opt.cluster_faults.empty() || opt.quorum != 1 ||
                         opt.devices_per_node != 1)) {
    return report_error(support::InvalidArgumentError(
        "cluster options (--quorum/--devices-per-node/--kill-node/--link-fault/"
        "--straggler) require --nodes"));
  }
  if (opt.degrade && opt.algo != "eim") {
    return report_error(support::InvalidArgumentError(
        "--degrade requires --algo eim (got '" + opt.algo + "')"));
  }
  // The tiered-store flags configure eIM's spill hierarchy (one per device,
  // on every topology); the other engines have none. `off` refuses them
  // rather than letting them switch spilling back on.
  const bool spill_flags =
      opt.device_mem_budget > 0 || !opt.spill_dir.empty() || opt.spill_host_budget > 0;
  if (opt.spill_policy == "off" && spill_flags) {
    return report_error(support::InvalidArgumentError(
        "--spill-policy off conflicts with --device-mem-budget/--spill-dir/"
        "--spill-host-budget"));
  }
  const bool spill_requested = spill_flags || opt.spill_policy == "spill";
  if (spill_requested && opt.algo != "eim") {
    return report_error(support::InvalidArgumentError(
        "spill options (--device-mem-budget/--spill-policy/--spill-dir/"
        "--spill-host-budget) require --algo eim (got '" + opt.algo + "')"));
  }
  // A cluster's width comes from --devices-per-node; refuse --devices
  // rather than silently ignore it.
  if (opt.nodes > 0 && opt.devices > 1) {
    return report_error(support::InvalidArgumentError(
        "--devices sets the single-host GPU count; with --nodes use "
        "--devices-per-node"));
  }
  // Each artifact stream has its own framing; interleaving any two on
  // stdout would corrupt both, so at most one may claim '-'.
  {
    const int stdout_claims = (opt.metrics_json == "-" ? 1 : 0) +
                              (opt.trace_out == "-" ? 1 : 0) +
                              (opt.profile_out == "-" ? 1 : 0);
    if (stdout_claims > 1) {
      return report_error(support::InvalidArgumentError(
          "at most one of --metrics-json/--trace-out/--profile-out may write "
          "to stdout ('-')"));
    }
  }
  // --resume keeps checkpointing into the same directory unless --checkpoint
  // points elsewhere.
  const std::string checkpoint_dir =
      !opt.checkpoint_dir.empty() ? opt.checkpoint_dir : opt.resume_dir;

  // Load or generate the graph. A malformed or unreadable edge list exits
  // with the I/O code and a structured stderr record.
  graph::Graph g;
  std::string source_name;
  try {
    if (!opt.file.empty()) {
      source_name = opt.file;
      g = graph::Graph::from_edge_list(graph::load_snap_text_file(opt.file));
    } else {
      const auto spec = graph::find_dataset(opt.dataset);
      if (!spec) {
        return report_error(support::InvalidArgumentError(
            "unknown dataset '" + opt.dataset + "' (try --list-datasets)"));
      }
      source_name = std::string(spec->name) + " (synthetic)";
      g = graph::Graph::from_edge_list(graph::build_dataset_edges(*spec));
    }
  } catch (const support::Error& e) {
    return report_error(e);
  }
  graph::assign_weights(g, opt.model);
  // Reserve stdout for machine output when any of it is routed there:
  // --json, --metrics-json -, or --trace-out - suppress the human text.
  const bool machine_stdout = opt.json || opt.metrics_json == "-" ||
                              opt.trace_out == "-" || opt.profile_out == "-";
  if (!machine_stdout) {
    std::printf("graph: %s — %u vertices, %llu edges | model=%s algo=%s k=%u eps=%g\n",
                source_name.c_str(), g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()),
                graph::to_string(opt.model), opt.algo.c_str(), opt.params.k,
                opt.params.epsilon);
  }

  // Run the requested algorithm. The registry and recorder collect
  // instrumentation from whatever path runs; --metrics-json / --trace-out
  // serialize them afterwards — even when the run fails, so failure paths
  // stay observable (everything recorded up to the fault is kept).
  support::metrics::MetricsRegistry registry;
  support::trace::TraceRecorder recorder;
  support::trace::TraceRecorder* trace =
      opt.trace_out.empty() ? nullptr : &recorder;
  // --profile-out arms both profiler instruments for the run: the wall
  // profile (hot-path scoped timers, lands in the metrics `wall` section)
  // and the SIGPROF sampling profiler (folded stacks). Both are wall-only —
  // the modeled results are bit-identical with or without them.
  support::profiler::WallProfile wall_profile;
  support::profiler::WallProfile* profile =
      opt.profile_out.empty() ? nullptr : &wall_profile;
  support::profiler::SamplingProfiler sampler_prof(
      {.hz = opt.profile_hz, .max_samples = std::size_t{1} << 15});
  if (profile != nullptr && support::profiler::SamplingProfiler::supported()) {
    sampler_prof.start();
  }
  eim_impl::EimResult result;
  int run_exit = support::kExitOk;
  try {
    // Load the snapshot before touching any device. A damaged checkpoint —
    // truncation, bit flip, a missing identity section, a metrics section
    // that does not restore — is rejected here with the I/O exit code,
    // never resumed silently wrong.
    std::optional<eim_impl::CheckpointState> ckpt;
    if (!opt.resume_dir.empty()) {
      try {
        ckpt = eim_impl::load_checkpoint(opt.resume_dir);
      } catch (const support::snapshot::SnapshotCorruptError&) {
        registry.counter("checkpoint.corrupt_rejected").add();
        throw;
      }
    }
    // One option set for every eIM path (single device, multi-GPU, cluster).
    eim_impl::EimOptions options;
    options.log_encode = !opt.no_log_encoding;
    options.eliminate_sources = !opt.no_source_elim;
    if (opt.draw_mode == "skip") options.draw_mode = eim_impl::DrawMode::Skip;
    if (opt.degrade) options.degrade_policy = eim_impl::DegradePolicy::Degrade;
    if (spill_requested) {
      options.spill.policy = eim_impl::SpillPolicy::Spill;
      options.spill.device_budget_bytes = opt.device_mem_budget;
      options.spill.host_budget_bytes = opt.spill_host_budget;
      options.spill.dir = opt.spill_dir;
    }
    options.metrics = &registry;
    options.trace = trace;
    options.profile = profile;
    options.checkpoint_dir = checkpoint_dir;
    options.resume = ckpt.has_value() ? &*ckpt : nullptr;
    if (opt.algo == "serial") {
      const auto serial = imm::run_imm_serial(g, opt.model, opt.params, profile);
      static_cast<imm::ImmResult&>(result) = serial;
    } else if (opt.algo == "eim" && opt.nodes > 0) {
      gpusim::ClusterSpec spec;
      spec.num_nodes = opt.nodes;
      spec.node.num_devices = opt.devices_per_node;
      spec.node.device = gpusim::make_benchmark_device(opt.memory_mb);
      gpusim::Cluster cluster(spec);
      cluster.set_fault_plan(opt.cluster_faults);
      result = eim_impl::run_eim_cluster(cluster, g, opt.model, opt.params, options,
                                         opt.quorum);
      if (!machine_stdout) {
        std::printf("cluster: %u nodes x %u devices (communication %.3f ms", opt.nodes,
                    opt.devices_per_node, result.communication_seconds * 1e3);
        if (!result.failed_domains.empty()) {
          std::printf(", %zu node(s) failed over, %llu samples resharded",
                      result.failed_domains.size(),
                      static_cast<unsigned long long>(result.respilled_samples));
        }
        std::printf(")\n");
      }
    } else if (opt.algo == "eim" && opt.devices > 1) {
      std::vector<std::unique_ptr<gpusim::Device>> owned;
      std::vector<gpusim::Device*> ptrs;
      for (std::uint32_t d = 0; d < opt.devices; ++d) {
        owned.push_back(std::make_unique<gpusim::Device>(
            gpusim::make_benchmark_device(opt.memory_mb)));
        ptrs.push_back(owned.back().get());
      }
      result = eim_impl::run_eim_multi(ptrs, g, opt.model, opt.params, options);
      if (!machine_stdout) {
        std::printf("devices: %u (communication %.3f ms)\n", opt.devices,
                    result.communication_seconds * 1e3);
      }
    } else {
      gpusim::Device device(gpusim::make_benchmark_device(opt.memory_mb));
      if (opt.algo == "eim") {
        result = eim_impl::run_eim(device, g, opt.model, opt.params, options);
      } else if (opt.algo == "gim") {
        baselines::GimConfig gim;
        gim.metrics = options.metrics;
        result = baselines::run_gim(device, g, opt.model, opt.params, gim);
      } else if (opt.algo == "curipples") {
        result = baselines::run_curipples(device, g, opt.model, opt.params);
      } else {
        throw support::InvalidArgumentError("unknown algorithm '" + opt.algo + "'");
      }
    }
  } catch (const support::Error& e) {
    run_exit = report_error(e);
  }
  // Stop sampling before serialization: artifact I/O is not part of the run
  // and would pollute the attribution.
  sampler_prof.stop();

  // Artifact emission is atomic (temp + rename) and stream-checked: a full
  // disk or failed serializer surfaces as the I/O exit code with a
  // structured stderr record, and never publishes a torn file.
  int artifact_exit = support::kExitOk;
  const auto emit_artifact = [&](const std::string& dest, const char* what,
                                 const std::function<void(std::ostream&)>& producer) {
    try {
      if (dest == "-") {
        producer(std::cout);
        std::cout.flush();
        if (!std::cout) {
          throw support::IoError(std::string("cannot write ") + what + " to stdout");
        }
      } else {
        support::atomic_write_text(dest, producer);
      }
    } catch (const support::Error& e) {
      const int code = report_error(e);
      if (artifact_exit == support::kExitOk) artifact_exit = code;
    }
  };

  if (!opt.metrics_json.empty()) {
    support::metrics::RunReport report;
    report.tool = "eim_cli";
    report.graph = source_name;
    report.algo = opt.algo;
    report.model = graph::to_string(opt.model);
    report.vertices = g.num_vertices();
    report.edges = g.num_edges();
    report.k = opt.params.k;
    report.epsilon = opt.params.epsilon;
    report.metrics = &registry;
    report.wall = profile;
    emit_artifact(opt.metrics_json, "metrics report",
                  [&](std::ostream& out) { report.write_json(out); });
  }

  if (trace != nullptr) {
    emit_artifact(opt.trace_out, "trace",
                  [&](std::ostream& out) { recorder.write_chrome_trace(out); });
  }

  if (!opt.profile_out.empty()) {
    emit_artifact(opt.profile_out, "profile", [&](std::ostream& out) {
      if (support::profiler::SamplingProfiler::supported()) {
        sampler_prof.write_folded(out);
      } else {
        // Visible marker so scripts can SKIP instead of mistaking an
        // unsupported platform for an empty (broken) profile.
        out << "# profiler-unsupported\n";
      }
    });
  }

  if (run_exit != support::kExitOk) return run_exit;
  if (artifact_exit != support::kExitOk) return artifact_exit;

  // A degraded run exits 0 but is not the run that was asked for: surface
  // the shortfall as one machine-parseable stderr record, the same on every
  // topology and for either cause.
  if (result.degraded) {
    support::JsonWriter w(std::cerr);
    w.begin_object()
        .field("warning", "degraded")
        .field("degrade_shortfall_samples", result.degrade_shortfall_samples)
        .field("degrade_shortfall_bytes", result.degrade_shortfall_bytes)
        .end_object();
    std::cerr << "\n";
  }

  if (opt.json) {
    support::JsonWriter w(std::cout);
    w.begin_object()
        .field("graph", source_name)
        .field("vertices", static_cast<std::uint64_t>(g.num_vertices()))
        .field("edges", static_cast<std::uint64_t>(g.num_edges()))
        .field("model", graph::to_string(opt.model))
        .field("algo", opt.algo)
        .field("k", static_cast<std::uint64_t>(opt.params.k))
        .field("eps", opt.params.epsilon);
    w.begin_array("seeds");
    for (const auto v : result.seeds) w.value(static_cast<std::uint64_t>(v));
    w.end_array();
    w.field("rrr_sets", result.num_sets)
        .field("rrr_elements", result.total_elements)
        .field("singletons_discarded", result.singletons_discarded)
        .field("device_seconds", result.device_seconds)
        .field("peak_device_bytes", result.peak_device_bytes)
        .field("rrr_bytes", result.rrr_bytes)
        .field("estimated_spread", result.estimated_spread)
        .field("degraded", result.degraded);
    if (result.degraded) {
      w.field("degrade_shortfall_samples", result.degrade_shortfall_samples)
          .field("degrade_shortfall_bytes", result.degrade_shortfall_bytes);
    }
    if (spill_requested) {
      w.field("spilled_sets", result.spilled_sets)
          .field("spill_bytes_compressed", result.spill_bytes_compressed);
    }
    if (opt.nodes > 0) {
      w.field("nodes", static_cast<std::uint64_t>(opt.nodes))
          .field("devices_per_node", static_cast<std::uint64_t>(opt.devices_per_node))
          .field("communication_seconds", result.communication_seconds)
          .field("reshard_samples", result.respilled_samples)
          .field("collective_retries", registry.counter("collective.retries").value());
      w.begin_array("failed_nodes");
      for (const auto n : result.failed_domains) w.value(static_cast<std::uint64_t>(n));
      w.end_array();
    }
    if (opt.verify_trials > 0) {
      const auto spread = diffusion::estimate_spread(g, opt.model, result.seeds,
                                                     opt.verify_trials, 1234);
      w.field("verified_spread", spread.mean).field("verified_stddev", spread.stddev);
    }
    w.end_object();
    std::cout << "\n";
    return 0;
  }
  if (machine_stdout) return 0;

  std::printf("seeds:");
  for (const auto v : result.seeds) std::printf(" %u", v);
  std::printf("\nRRR sets: %llu (%llu elements, %llu singleton samples discarded)\n",
              static_cast<unsigned long long>(result.num_sets),
              static_cast<unsigned long long>(result.total_elements),
              static_cast<unsigned long long>(result.singletons_discarded));
  if (opt.algo != "serial") {
    std::printf("modeled device time: %.3f ms (kernels %.3f, transfers %.3f)\n",
                result.device_seconds * 1e3, result.kernel_seconds * 1e3,
                result.transfer_seconds * 1e3);
    std::printf("peak device memory: %.2f MB | R stored %.2f MB (raw %.2f MB)\n",
                static_cast<double>(result.peak_device_bytes) / 1e6,
                static_cast<double>(result.rrr_bytes) / 1e6,
                static_cast<double>(result.rrr_raw_bytes) / 1e6);
    if (result.spilled_sets > 0) {
      std::printf("spill: %llu sets evicted off-device (%.2f MB compressed)\n",
                  static_cast<unsigned long long>(result.spilled_sets),
                  static_cast<double>(result.spill_bytes_compressed) / 1e6);
    }
  }
  if (result.degraded) {
    std::printf(
        "DEGRADED: theta stopped %llu samples (%llu bytes) short of the full "
        "run; seeds are best-effort over the committed prefix\n",
        static_cast<unsigned long long>(result.degrade_shortfall_samples),
        static_cast<unsigned long long>(result.degrade_shortfall_bytes));
  }
  std::printf("coverage-based spread estimate: %.1f of %u vertices\n",
              result.estimated_spread, g.num_vertices());

  if (opt.verify_trials > 0) {
    const auto spread = diffusion::estimate_spread(g, opt.model, result.seeds,
                                                   opt.verify_trials, 1234);
    std::printf("forward MC verification: %.1f +- %.1f expected activations\n",
                spread.mean, spread.stddev);
  }
  return 0;
}
