// prof_report — bucketed attribution over a folded-stack profile.
//
// Collapses the folded ("collapsed") output of the support::profiler
// sampling profiler (eim_cli --profile-out / EIM_BENCH_PROFILE) into the
// attribution table every sampler-optimization PR is judged with:
//
//   prof_report profile.folded
//   prof_report --json profile.folded
//   eim_cli ... --profile-out - | prof_report -
//
// Each sample (one folded line, weighted by its count) is attributed to the
// first frame, scanning leaf to root, that matches a known hot-path bucket:
//
//   sampler   Monte Carlo RRR generation (EimSampler, the shared traversal
//             kernel's BFS + walk and policies, the slot-order wave runner
//             and its commits, RrrSampler)
//   rng.skip  fast-draw arithmetic: geometric skip-ahead draws and
//             alias-table picks (--draw-mode skip)
//   rng.gen   Philox block generation and bulk refills
//   rng       remaining draw plumbing (RandomStream scalar draws, the draw
//             buffer bookkeeping) — also where every rng-ish symbol from a
//             profile predating the rng.gen/rng.skip split still lands, so
//             old folded files keep parsing with the same total rng share
//   spill     memory-pressure tiers: TieredRrrStore evict/fetch, the
//             rrr_block codec frames it drives, atomic disk I/O + retries
//   codec     bit-packed encode/decode (PackedCsc, BitPackedArray, ...)
//   selector  seed selection (the mirror decode driver, inverted index,
//             greedy_select's lazy-greedy picks and coverage walk)
//   pool      ThreadPool dispatch/queue machinery (idle workers excluded
//             only if the platform strips their frames)
//   other     everything else (driver, I/O, unresolved frames)
//
// Leaf-to-root matching attributes work to the code actually executing —
// a codec decode running inside the selector counts as codec.
//
// A sample "symbolizes" when at least one of its frames is a real symbol
// (not a raw 0x address). The tool exits nonzero when fewer than
// --min-symbolized (default 0.5) of the samples symbolize — an unsymbolized
// profile silently attributes everything to "other", which is worse than
// failing loudly. Exit codes: 0 ok, 1 below threshold or empty profile,
// 2 bad arguments, 3 unreadable input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/json.hpp"
#include "eim/support/table.hpp"

namespace {

struct Bucket {
  const char* name;
  /// Substring patterns; a frame matches the bucket if it contains any.
  std::vector<std::string_view> patterns;
  std::uint64_t samples = 0;
};

/// Bucket patterns, checked per frame in this order (first hit wins). The
/// order resolves the rare frame that matches two buckets: draw generation
/// outranks the sampler that requested it, the spill tier outranks the
/// codec it drives (rrr_block_encode inside an eviction is spill tax, not
/// steady-state codec work), codec outranks the selector driving the decode.
std::vector<Bucket> make_buckets() {
  return {
      // The rng family is split three ways: the two sub-buckets claim their
      // specific symbols first, and the plain `rng` catch-all keeps every
      // other draw-path symbol — including everything an old (pre-split)
      // folded file can contain — bucketing exactly where it used to.
      {"rng.skip",
       {"geometric_skip", "alias_pick", "build_draw_plan", "draw_plan"},
       0},
      {"rng.gen",
       {"Philox", "fill_floats", "fill_u32", "fill_blocks", "refill"},
       0},
      {"rng",
       {"RandomStream", "FloatDrawBuffer", "splitmix64"},
       0},
      {"spill",
       {"TieredRrrStore", "rrr_block_", "spill", "atomic_write", "retry_on",
        "resample_set", "quarantine"},
       0},
      {"codec",
       {"BitPackedArray", "PackedCsc", "decode_set", "decode_into",
        "store_release_range", "encode", "BitmapSet", "Huffman", "varint"},
       0},
      // The device traversal's frames (eim/traversal.hpp) name their
      // policies or the bfs_ic/walk_lt templates; none takes a RandomStream
      // parameter, so none is claimed by the rng bucket above.
      {"sampler",
       {"EimSampler", "RrrSampler", "bfs_ic", "walk_lt", "sample_ic", "sample_lt",
        "sample_into", "sample_rrr", "sample_assigned", "sample_to", "generate",
        "launch_blocks", "launch_metered", "run_wave", "DeviceRrrCollection::admit",
        "DeviceRrrCollection::publish", "Traversal", "ExactDraws", "SkipDraws",
        "ScanPick", "AliasPick"},
       0},
      {"selector",
       {"SeedSelector", "GpuSeedSelector", "LazyArgMax", "build_inverted_index",
        "select_seeds", "seed_selection", "pop_best", "greedy_select", "decode_mirror"},
       0},
      {"pool",
       {"ThreadPool", "parallel_for", "worker_loop", "enqueue_bulk",
        "MoveOnlyTask", "drain"},
       0},
  };
}

bool frame_is_symbol(std::string_view frame) {
  return !(frame.size() > 2 && frame[0] == '0' && (frame[1] == 'x' || frame[1] == 'X'));
}

struct Report {
  std::vector<Bucket> buckets = make_buckets();
  std::uint64_t total = 0;
  std::uint64_t other = 0;
  std::uint64_t symbolized = 0;

  /// Attribute one folded stack (root;...;leaf) carrying `count` samples.
  void add(std::string_view stack, std::uint64_t count) {
    total += count;

    // Split root-first, then scan leaf to root.
    std::vector<std::string_view> frames;
    std::size_t pos = 0;
    while (pos <= stack.size()) {
      const std::size_t semi = stack.find(';', pos);
      const std::size_t end = semi == std::string_view::npos ? stack.size() : semi;
      frames.push_back(stack.substr(pos, end - pos));
      if (semi == std::string_view::npos) break;
      pos = semi + 1;
    }

    bool any_symbol = false;
    Bucket* hit = nullptr;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (frame_is_symbol(*it)) any_symbol = true;
      if (hit == nullptr) {
        for (Bucket& b : buckets) {
          for (const std::string_view pat : b.patterns) {
            if (it->find(pat) != std::string_view::npos) {
              hit = &b;
              break;
            }
          }
          if (hit != nullptr) break;
        }
      }
      if (hit != nullptr && any_symbol) break;
    }
    if (any_symbol) symbolized += count;
    if (hit != nullptr) {
      hit->samples += count;
    } else {
      other += count;
    }
  }

  [[nodiscard]] double symbolized_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(symbolized) / static_cast<double>(total);
  }
  [[nodiscard]] double bucketed_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(total - other) / static_cast<double>(total);
  }
};

Report collapse(std::istream& in, const std::string& label) {
  Report report;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;  // tolerate comment headers
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      throw eim::support::IoError(label + ":" + std::to_string(lineno) +
                                  ": not a folded-stack line (missing count)");
    }
    char* end = nullptr;
    const unsigned long long count = std::strtoull(line.c_str() + space + 1, &end, 10);
    if (end == line.c_str() + space + 1 || *end != '\0') {
      throw eim::support::IoError(label + ":" + std::to_string(lineno) +
                                  ": bad sample count '" + line.substr(space + 1) + "'");
    }
    report.add(std::string_view(line).substr(0, space), count);
  }
  return report;
}

double pct(std::uint64_t part, std::uint64_t total) {
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) / static_cast<double>(total);
}

void print_text(const Report& r) {
  eim::support::TextTable table({"bucket", "samples", "percent"});
  for (const Bucket& b : r.buckets) {
    table.add_row({b.name, std::to_string(b.samples),
                   eim::support::TextTable::num(pct(b.samples, r.total), 1)});
  }
  table.add_row({"other", std::to_string(r.other),
                 eim::support::TextTable::num(pct(r.other, r.total), 1)});
  table.print(std::cout);
  std::printf("# total samples:  %llu\n", static_cast<unsigned long long>(r.total));
  std::printf("# symbolized:     %llu (%.1f%%)\n",
              static_cast<unsigned long long>(r.symbolized),
              100.0 * r.symbolized_fraction());
  std::printf("# bucketed:       %.1f%%\n", 100.0 * r.bucketed_fraction());
}

void print_json(const Report& r) {
  eim::support::JsonWriter w(std::cout);
  w.begin_object();
  // v2: the `rng` bucket split into rng.skip / rng.gen / rng (catch-all).
  w.field("schema", "eim.prof_report.v2");
  w.field("total_samples", static_cast<std::uint64_t>(r.total));
  w.field("symbolized_samples", static_cast<std::uint64_t>(r.symbolized));
  w.field("symbolized_fraction", r.symbolized_fraction());
  w.field("bucketed_fraction", r.bucketed_fraction());
  w.key("buckets").begin_object();
  for (const Bucket& b : r.buckets) w.field(b.name, b.samples);
  w.field("other", r.other);
  w.end_object();
  w.end_object();
  std::cout << '\n';
}

void print_usage() {
  std::puts(
      "usage: prof_report [--json] [--min-symbolized <frac>] <profile.folded|->\n"
      "  Attributes a folded-stack sampling profile (support::profiler) to\n"
      "  the repo's hot-path buckets: sampler / rng.skip / rng.gen / rng /\n"
      "  spill / codec / selector / pool / other. '-' reads stdin. Exits 1\n"
      "  when the profile\n"
      "  is empty or\n"
      "  fewer than <frac> (default 0.5) of the samples symbolize.");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  double min_symbolized = 0.5;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return eim::support::kExitOk;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--min-symbolized") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --min-symbolized needs a value\n");
        return eim::support::kExitBadArgs;
      }
      char* end = nullptr;
      min_symbolized = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || min_symbolized < 0.0 ||
          min_symbolized > 1.0) {
        std::fprintf(stderr, "error: bad fraction '%s'\n", argv[i]);
        return eim::support::kExitBadArgs;
      }
    } else if (arg != "-" && !arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg.c_str());
      print_usage();
      return eim::support::kExitBadArgs;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "error: more than one input file\n");
      return eim::support::kExitBadArgs;
    }
  }
  if (path.empty()) {
    print_usage();
    return eim::support::kExitBadArgs;
  }

  try {
    Report report;
    if (path == "-") {
      report = collapse(std::cin, "<stdin>");
    } else {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw eim::support::IoError("cannot read '" + path + "'");
      report = collapse(in, path);
    }

    if (json) {
      print_json(report);
    } else {
      print_text(report);
    }

    if (report.total == 0) {
      std::fprintf(stderr, "error: empty profile (no samples)\n");
      return eim::support::kExitError;
    }
    if (report.symbolized_fraction() < min_symbolized) {
      std::fprintf(stderr,
                   "error: only %.1f%% of samples symbolized (need %.1f%%) — "
                   "was the binary built with symbol export?\n",
                   100.0 * report.symbolized_fraction(), 100.0 * min_symbolized);
      return eim::support::kExitError;
    }
    return eim::support::kExitOk;
  } catch (const eim::support::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return eim::support::kExitIo;
  }
}
