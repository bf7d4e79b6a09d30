// Micro-benchmarks (google-benchmark) for the hot primitives: Philox
// throughput, log-encoding encode/decode/concurrent store (per-element and
// word-streaming bulk), varint for comparison, reverse-reachability
// sampling rate, the forward simulator, greedy seed selection (lazy heap
// vs the linear-scan reference), and ThreadPool dispatch. These quantify
// host-side costs; the modeled GPU numbers come from the per-figure
// binaries.
//
// When EIM_BENCH_JSON is set, writes an eim.metrics.v3 envelope with one
// cell per benchmark carrying `wall_seconds` (seconds per iteration) so
// tools/bench_diff can track the host-time trajectory (warn-only).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <span>

#include "eim/diffusion/forward.hpp"
#include "eim/graph/draw_plan.hpp"
#include "eim/diffusion/reverse.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/encoding/bit_packed_array.hpp"
#include "eim/encoding/varint.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"
#include "eim/support/atomic_write.hpp"
#include "eim/support/error.hpp"
#include "eim/support/json.hpp"
#include "eim/support/rng.hpp"
#include "eim/support/thread_pool.hpp"

namespace {

using namespace eim;

void BM_PhiloxU32(benchmark::State& state) {
  support::RandomStream rng(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u32());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhiloxU32);

void BM_PhiloxDouble(benchmark::State& state) {
  support::RandomStream rng(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhiloxDouble);

// Scalar float draws vs the lane-parallel bulk fill the samplers now use
// (fill_floats generates the identical sequence in SIMD-friendly blocks).
void BM_PhiloxFloatScalar(benchmark::State& state) {
  support::RandomStream rng(1, 3);
  std::vector<float> out(1 << 12);
  for (auto _ : state) {
    for (auto& v : out) v = rng.next_float();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_PhiloxFloatScalar);

void BM_PhiloxFillFloats(benchmark::State& state) {
  support::RandomStream rng(1, 3);
  std::vector<float> out(1 << 12);
  for (auto _ : state) {
    rng.fill_floats(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_PhiloxFillFloats);

// --- Fast-draw primitives (--draw-mode skip) -------------------------------
//
// One geometric skip-ahead draw replaces ~1/p per-edge Bernoulli draws, and
// one alias pick replaces an O(in-degree) prefix scan; these rows sit next
// to the Philox rows above so the per-draw cost of the replacement reads
// directly off the report (docs/PERFORMANCE.md "Draw efficiency").
void BM_DrawSkip(benchmark::State& state) {
  support::RandomStream rng(1, 4);
  const double p = graph::grid_success_probability(0.05f);
  const double log1m = std::log1p(-p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::geometric_skip(rng, log1m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DrawSkip);

void BM_AliasPick(benchmark::State& state) {
  // A 64-in-edge star row — the alias pick is O(1), so the degree only
  // affects table build (outside the loop), not the measured pick.
  constexpr graph::VertexId kDeg = 64;
  static const graph::Graph g = [] {
    graph::EdgeList edges(kDeg + 1);
    for (graph::VertexId s = 0; s < kDeg; ++s) edges.add_edge(s, kDeg);
    edges.normalize();
    graph::Graph built = graph::Graph::from_edge_list(edges);
    graph::assign_weights(built, graph::DiffusionModel::LinearThreshold);
    return built;
  }();
  const graph::DrawPlan* plan = g.draw_plan();
  support::RandomStream rng(1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::alias_pick_lt(*plan, g, kDeg, rng.next_float()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AliasPick);

void BM_BitPackedEncode(benchmark::State& state) {
  const auto bits = static_cast<std::uint32_t>(state.range(0));
  support::RandomStream rng(3, bits);
  std::vector<std::uint64_t> values(1 << 16);
  for (auto& v : values) v = rng.next_u64() & support::low_mask64(bits);
  for (auto _ : state) {
    encoding::BitPackedArray packed(values.size(), bits);
    for (std::size_t i = 0; i < values.size(); ++i) packed.set(i, values[i]);
    benchmark::DoNotOptimize(packed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_BitPackedEncode)->Arg(12)->Arg(20)->Arg(31);

void BM_BitPackedDecode(benchmark::State& state) {
  const auto bits = static_cast<std::uint32_t>(state.range(0));
  support::RandomStream rng(3, bits);
  encoding::BitPackedArray packed(1 << 16, bits);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed.set(i, rng.next_u64() & support::low_mask64(bits));
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) sum += packed.get(i);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packed.size()));
}
BENCHMARK(BM_BitPackedDecode)->Arg(12)->Arg(20)->Arg(31);

// Word-streaming bulk decode (decode_into) against the per-element get()
// loop above — same sizes and widths, so the ratio reads directly off the
// report. Arg 40 exercises the three-word (>32-bit) window.
void BM_BitPackedDecodeBulk(benchmark::State& state) {
  const auto bits = static_cast<std::uint32_t>(state.range(0));
  support::RandomStream rng(3, bits);
  encoding::BitPackedArray packed(1 << 16, bits);
  std::vector<std::uint64_t> values(packed.size());
  for (auto& v : values) v = rng.next_u64() & support::low_mask64(bits);
  packed.encode_into(0, values);
  std::vector<std::uint64_t> out(packed.size());
  for (auto _ : state) {
    packed.decode_into(0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packed.size()));
}
BENCHMARK(BM_BitPackedDecodeBulk)->Arg(12)->Arg(20)->Arg(31)->Arg(40);

// Streaming bulk encode (encode_into) against the set() loop of
// BM_BitPackedEncode.
void BM_BitPackedEncodeBulk(benchmark::State& state) {
  const auto bits = static_cast<std::uint32_t>(state.range(0));
  support::RandomStream rng(3, bits);
  std::vector<std::uint64_t> values(1 << 16);
  for (auto& v : values) v = rng.next_u64() & support::low_mask64(bits);
  for (auto _ : state) {
    encoding::BitPackedArray packed(values.size(), bits);
    packed.encode_into(0, values);
    benchmark::DoNotOptimize(packed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_BitPackedEncodeBulk)->Arg(12)->Arg(20)->Arg(31);

void BM_BitPackedStoreRelease(benchmark::State& state) {
  encoding::BitPackedArray packed(1 << 16, 14);
  for (auto _ : state) {
    state.PauseTiming();
    packed.clear();
    state.ResumeTiming();
    for (std::size_t i = 0; i < packed.size(); ++i) {
      packed.store_release(i, i & 0x3FFFu);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packed.size()));
}
BENCHMARK(BM_BitPackedStoreRelease);

// Bulk slice publish (the RRR commit path) vs the per-element atomic loop
// above: interior words are plain stores, only boundary words pay fetch_or.
void BM_BitPackedStoreReleaseBulk(benchmark::State& state) {
  encoding::BitPackedArray packed(1 << 16, 14);
  std::vector<std::uint32_t> values(1 << 16);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::uint32_t>(i) & 0x3FFFu;
  }
  for (auto _ : state) {
    state.PauseTiming();
    packed.clear();
    state.ResumeTiming();
    // Publish in 64-slot slices, like sampler warps committing sets.
    for (std::size_t first = 0; first < values.size(); first += 64) {
      packed.store_release_range(
          first, std::span<const std::uint32_t>(values.data() + first, 64));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packed.size()));
}
BENCHMARK(BM_BitPackedStoreReleaseBulk);

// The RRR commit path: 1024 sets of 64 members admitted in slot order into
// a log-encoded collection and published into R, the samplers' form: one
// admit() over the whole run of lengths, then a publish pass.
void BM_RrrCommitStaged(benchmark::State& state) {
  constexpr std::size_t kSets = 1024;
  constexpr std::size_t kLen = 64;
  gpusim::Device device(gpusim::make_benchmark_device(64));
  std::vector<std::uint32_t> values(kSets * kLen);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::uint32_t>(i) & 0x3FFFu;
  }
  const std::vector<std::uint32_t> lengths(kSets, static_cast<std::uint32_t>(kLen));
  const std::span<const std::uint32_t> all(values);
  std::optional<eim_impl::DeviceRrrCollection> collection;
  for (auto _ : state) {
    state.PauseTiming();
    collection.reset();
    collection.emplace(device, 1u << 14, /*log_encode=*/true);
    collection->reserve(kSets, values.size());
    state.ResumeTiming();
    const std::uint64_t admitted = collection->admit(lengths);
    for (std::uint64_t i = 0; i < admitted; ++i) {
      collection->publish(i, all.subspan(i * kLen, kLen));
    }
    benchmark::DoNotOptimize(collection->total_elements());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_RrrCommitStaged);

void BM_VarintRoundTrip(benchmark::State& state) {
  support::RandomStream rng(5, 5);
  std::vector<std::uint64_t> values(1 << 14);
  for (auto& v : values) v = rng.next_below(1 << 20);
  for (auto _ : state) {
    const auto bytes = encoding::varint_encode(values);
    benchmark::DoNotOptimize(encoding::varint_decode(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintRoundTrip);

const graph::Graph& bench_graph(graph::DiffusionModel model) {
  static graph::Graph ic = [] {
    graph::Graph g = graph::Graph::from_edge_list(graph::barabasi_albert(10'000, 4, 0.3, 7));
    graph::assign_weights(g, graph::DiffusionModel::IndependentCascade);
    return g;
  }();
  static graph::Graph lt = [] {
    graph::Graph g = graph::Graph::from_edge_list(graph::barabasi_albert(10'000, 4, 0.3, 7));
    graph::assign_weights(g, graph::DiffusionModel::LinearThreshold);
    return g;
  }();
  return model == graph::DiffusionModel::IndependentCascade ? ic : lt;
}

void BM_RrrSampleIc(benchmark::State& state) {
  const auto& g = bench_graph(graph::DiffusionModel::IndependentCascade);
  diffusion::RrrSampler sampler(g, graph::DiffusionModel::IndependentCascade);
  support::RandomStream rng(9, 1);
  std::vector<graph::VertexId> out;
  for (auto _ : state) {
    sampler.sample_into(rng.next_below(g.num_vertices()), rng, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RrrSampleIc);

void BM_RrrSampleLt(benchmark::State& state) {
  const auto& g = bench_graph(graph::DiffusionModel::LinearThreshold);
  diffusion::RrrSampler sampler(g, graph::DiffusionModel::LinearThreshold);
  support::RandomStream rng(9, 2);
  std::vector<graph::VertexId> out;
  for (auto _ : state) {
    sampler.sample_into(rng.next_below(g.num_vertices()), rng, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RrrSampleLt);

void BM_ForwardCascadeIc(benchmark::State& state) {
  const auto& g = bench_graph(graph::DiffusionModel::IndependentCascade);
  const std::vector<graph::VertexId> seeds{0, 1, 2, 3, 4};
  std::uint64_t trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diffusion::simulate_ic(g, seeds, 7, trial++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ForwardCascadeIc);

// --- Seed selection: lazy heap vs linear reference -------------------------
//
// A synthetic collection sized so the per-pick arg-max dominates: n = 2^18
// candidate vertices, 10k sets of ~16 members, k = 300 picks. The linear
// reference scans all n counts per pick (k*n ≈ 79M reads); the lazy heap
// pops a handful of stale entries. Both share the identical preprocessing
// (flat decode + inverted index) and modeled charges, so the ratio isolates
// the arg-max strategy.
struct SelectFixture {
  static constexpr graph::VertexId kN = 1u << 18;
  static constexpr std::uint64_t kSets = 10'000;

  gpusim::Device device{gpusim::make_benchmark_device(256)};
  eim_impl::DeviceRrrCollection collection{device, kN, /*log_encode=*/true};

  SelectFixture() {
    support::RandomStream rng(11, 42);
    collection.reserve(kSets, kSets * 16 + 64);
    std::vector<graph::VertexId> set;
    for (std::uint64_t i = 0; i < kSets; ++i) {
      set.clear();
      for (int j = 0; j < 16; ++j) {
        set.push_back(static_cast<graph::VertexId>(rng.next_below(kN)));
      }
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
      const auto len = static_cast<std::uint32_t>(set.size());
      const std::uint64_t admitted =
          collection.admit(std::span<const std::uint32_t>(&len, 1));
      EIM_CHECK_MSG(admitted == 1, "bench fixture overflowed its reservation");
      collection.publish(i, set);
    }
  }

  static SelectFixture& instance() {
    static SelectFixture fx;
    return fx;
  }
};

void run_seed_select(benchmark::State& state, eim_impl::ArgMaxMode mode) {
  auto& fx = SelectFixture::instance();
  eim_impl::GpuSeedSelector selector(fx.device, eim_impl::ScanStrategy::ThreadPerSet);
  selector.set_argmax_mode(mode);
  for (auto _ : state) {
    fx.device.timeline().reset();  // modeled segments, not host time
    benchmark::DoNotOptimize(selector.select(fx.collection, 300));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 300);
}

void BM_SeedSelectLazyHeap(benchmark::State& state) {
  run_seed_select(state, eim_impl::ArgMaxMode::kLazyHeap);
}
BENCHMARK(BM_SeedSelectLazyHeap);

void BM_SeedSelectLinearRef(benchmark::State& state) {
  run_seed_select(state, eim_impl::ArgMaxMode::kLinearReference);
}
BENCHMARK(BM_SeedSelectLinearRef);

// --- ThreadPool dispatch overhead ------------------------------------------
//
// parallel_for over a trivial body measures pure coordination cost. The
// 2-worker pool forces the queued (non-serial-fast-path) protocol even on a
// single-core host; grain 1 pays one cursor bump per item where adaptive
// grain pays a handful per call.
void run_parallel_for(benchmark::State& state, std::size_t grain) {
  static support::ThreadPool pool(2);
  const auto items = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> data(items);
  for (auto _ : state) {
    pool.parallel_for(
        0, items, [&](std::size_t i) { data[i] = i; }, grain);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}

void BM_ParallelForAdaptive(benchmark::State& state) {
  run_parallel_for(state, /*grain=*/0);
}
BENCHMARK(BM_ParallelForAdaptive)->Arg(1 << 10)->Arg(1 << 16);

void BM_ParallelForGrain1(benchmark::State& state) {
  run_parallel_for(state, /*grain=*/1);
}
BENCHMARK(BM_ParallelForGrain1)->Arg(1 << 10)->Arg(1 << 16);

// --- Envelope emission ------------------------------------------------------
//
// Mirrors bench/common.cpp's BenchReporter shape so tools/bench_diff can
// consume micro runs too. Micro cells carry only `wall_seconds` (seconds
// per iteration, real time) — there is no modeled quantity here, so the
// whole envelope is warn-only by construction.
class EnvelopeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      if (run.iterations == 0) continue;
      cells_.emplace_back(run.benchmark_name(),
                          run.real_accumulated_time /
                              static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void flush_envelope() const {
    const char* path = std::getenv("EIM_BENCH_JSON");
    if (path == nullptr || *path == '\0' || cells_.empty()) return;
    support::atomic_write_text(path, [&](std::ostream& out) {
      support::JsonWriter w(out);
      w.begin_object();
      w.field("schema", "eim.metrics.v3");
      w.field("tool", "bench_micro");
      w.begin_array("cells");
      for (const auto& [id, wall] : cells_) {
        w.begin_object().field("id", id).field("wall_seconds", wall).end_object();
      }
      w.end_array();
      w.end_object();
      out << '\n';
    });
  }

 private:
  std::vector<std::pair<std::string, double>> cells_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  EnvelopeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.flush_envelope();
  benchmark::Shutdown();
  return 0;
}
