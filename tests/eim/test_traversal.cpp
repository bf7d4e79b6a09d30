// Golden pins for the device traversal kernels: the eIM sampler's IC BFS
// and LT walk in every draw policy, and the gIM baseline's shared-memory
// queue variant of the same kernels. Every figure below is the modeled
// output recorded bit-exactly before the kernels were unified, so any
// change to what a traversal charges per dequeue, enqueue, chunk or commit
// fails here — not only a change to the sets it produces. The host bodies
// behind the exact draws — ExactDraws' scalar and 16-lane edge scans and
// sort_set — are held to their plain reference loops here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "eim/baselines/gim.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/rng.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

constexpr std::uint64_t kSets = 4000;

Graph make_graph(DiffusionModel model) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 8;
  return p;
}

/// One cell's pinned figures. Doubles are hexfloat literals so the pin is
/// bit-exact, not a decimal approximation.
struct Pinned {
  std::uint64_t num_sets;
  std::uint64_t total_elements;
  double kernel_seconds;
  double device_seconds;
};

void expect_sampler_pinned(DiffusionModel model, EimOptions options, const Pinned& pin) {
  const Graph g = make_graph(model);
  gpusim::Device device(gpusim::make_benchmark_device(256));
  support::metrics::MetricsRegistry registry;
  options.metrics = &registry;
  DeviceRrrCollection collection(device, g.num_vertices(), options.log_encode);
  EimSampler sampler(device, g, model, make_params(), options);
  sampler.sample_to(collection, kSets);

  // Fixture: every cell fits its reservations on the first admit, so the
  // pins price one pass of each traversal with no rejected sample re-run.
  // (Rejections are decided in slot order, so a re-run would repeat
  // bit-for-bit as well.)
  ASSERT_EQ(registry.counter("sampler.commit_retries").value(), 0u);
  EXPECT_EQ(collection.num_sets(), pin.num_sets);
  EXPECT_EQ(collection.total_elements(), pin.total_elements);
  EXPECT_EQ(device.timeline().kernel_seconds(), pin.kernel_seconds);
  EXPECT_EQ(device.timeline().total_seconds(), pin.device_seconds);
}

void expect_gim_pinned(DiffusionModel model, const Pinned& pin,
                       std::uint64_t device_mallocs) {
  const Graph g = make_graph(model);
  gpusim::Device device(gpusim::make_benchmark_device(256));
  baselines::GimConfig config;
  // Fixture: the heap-pressure term is off, so the pins isolate what the
  // shared traversal charges from the allocator model layered on top. (The
  // term is priced in slot order, so it would repeat bit-for-bit as well.)
  config.heap_pressure_scale = std::numeric_limits<std::uint64_t>::max();
  // A four-entry shared queue makes most traversals spill.
  config.shared_queue_entries = 4;
  const EimResult r = baselines::run_gim(device, g, model, make_params(), config);

  EXPECT_EQ(r.num_sets, pin.num_sets);
  EXPECT_EQ(r.total_elements, pin.total_elements);
  EXPECT_EQ(r.kernel_seconds, pin.kernel_seconds);
  EXPECT_EQ(r.device_seconds, pin.device_seconds);
  EXPECT_EQ(r.device_mallocs, device_mallocs);
}

TEST(TraversalKernels, ModeledChargesPinned) {
  EimOptions options;

  // IC BFS, one draw per unvisited in-neighbor.
  expect_sampler_pinned(DiffusionModel::IndependentCascade, options,
                        {kSets, 18436, 0x1.8a1422f2c713ep-12, 0x1.2de59d25d496ap-11});

  // IC BFS, geometric skip-ahead over the DrawPlan's row kinds.
  options.draw_mode = DrawMode::Skip;
  expect_sampler_pinned(DiffusionModel::IndependentCascade, options,
                        {kSets, 18784, 0x1.150968b3d870dp-12, 0x1.e6c0800cba8a4p-12});

  // LT walk, alias-table picks.
  expect_sampler_pinned(DiffusionModel::LinearThreshold, options,
                        {kSets, 14877, 0x1.6e869109d2c4ap-13, 0x1.88fa5fddcb7bcp-12});

  // LT walk, warp prefix scan.
  options.draw_mode = DrawMode::Exact;
  expect_sampler_pinned(DiffusionModel::LinearThreshold, options,
                        {kSets, 14877, 0x1.83225ecf992fep-13, 0x1.934846c0aeb16p-12});

  // LT walk, §3.3's serialized shared-sum ablation over a plain R array.
  options.lt_activation = LtActivationMethod::AtomicAdd;
  options.log_encode = false;
  expect_sampler_pinned(DiffusionModel::LinearThreshold, options,
                        {kSets, 14877, 0x1.e1c9e7dc1e51cp-13, 0x1.c29c0b46f1424p-12});

  // gIM: shared-memory queue with a malloc'd global spill.
  expect_gim_pinned(DiffusionModel::IndependentCascade,
                    {285536, 1184016, 0x1.6d9117ba1b962p-6, 0x1.7ff2ec3d932c8p-6},
                    360121);
  expect_gim_pinned(DiffusionModel::LinearThreshold,
                    {263398, 1105374, 0x1.37a4c81114982p-6, 0x1.4a069c948c2e8p-6},
                    353613);
}

// A Mixed DrawPlan row (in-edges of unequal weight) falls back to one draw
// per unvisited in-neighbor, in stream order. On a graph whose every row is
// Mixed, skip mode therefore consumes each sample's stream exactly like
// exact mode and must commit the identical collection.
TEST(TraversalKernels, SkipMixedRowsDrawLikeExact) {
  Graph g = Graph::from_edge_list(graph::complete_graph(24));
  graph::assign_weights(g, DiffusionModel::IndependentCascade,
                        {.scheme = graph::WeightScheme::RandomUniform, .value = 0.1f});

  const auto sample = [&](DrawMode mode) {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    support::metrics::MetricsRegistry registry;
    EimOptions options;
    options.draw_mode = mode;
    options.metrics = &registry;
    DeviceRrrCollection collection(device, g.num_vertices(), true);
    EimSampler sampler(device, g, DiffusionModel::IndependentCascade, make_params(),
                       options);
    sampler.sample_to(collection, 2000);
    if (mode == DrawMode::Skip) {
      // Every row took the per-edge fallback: no draw was skipped.
      EXPECT_EQ(registry.counter("sampler.draws_skipped").value(), 0u);
    }
    std::vector<std::vector<VertexId>> sets(collection.num_sets());
    for (std::uint64_t i = 0; i < sets.size(); ++i) {
      for (std::uint32_t j = 0; j < collection.set_length(i); ++j) {
        sets[i].push_back(collection.element(i, j));
      }
    }
    return sets;
  };
  EXPECT_EQ(sample(DrawMode::Skip), sample(DrawMode::Exact));
}

// --- ExactDraws' edge scans ------------------------------------------------

/// One row as sweep sees it: in-edge ids and weights, stamps (v is visited
/// iff stamp[v] == epoch) and exactly one draw per in-edge, the most a
/// sweep can take.
struct ScanRow {
  std::vector<VertexId> ins;
  std::vector<float> ws;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 1;
  std::vector<float> draws;
};

/// What a sweep over a row did: the edges that fired and the draws taken.
struct ScanTrace {
  std::vector<std::size_t> hits;
  std::size_t taken = 0;
  bool operator==(const ScanTrace&) const = default;
};

/// The exact sweep as one plain loop: one draw per unvisited target, fire
/// on a strict <, a fired target is visited from then on.
ScanTrace reference_sweep(ScanRow row) {
  ScanTrace trace;
  for (std::size_t j = 0; j < row.ins.size(); ++j) {
    if (row.stamp[row.ins[j]] == row.epoch) continue;
    if (row.draws[trace.taken++] < row.ws[j]) {
      trace.hits.push_back(j);
      row.stamp[row.ins[j]] = row.epoch;
    }
  }
  return trace;
}

/// The sweep as ExactDraws runs it: scan to the next firing edge, fire it,
/// scan on from the edge after.
template <class Scan>
ScanTrace scan_sweep(Scan scan, ScanRow row) {
  ScanTrace trace;
  const std::size_t end = row.ins.size();
  for (std::size_t j = 0; (j = scan(row.ins.data(), row.ws.data(), j, end, row.stamp.data(),
                                    row.epoch, row.draws.data(), trace.taken)) < end;
       ++j) {
    trace.hits.push_back(j);
    row.stamp[row.ins[j]] = row.epoch;
  }
  return trace;
}

enum class Visits { None, All, Half };
enum class Weights { Random, Zero, One, Mixed };

/// A seeded row of `length` in-edges over 48 vertices, so longer rows
/// repeat ids. Mixed weights draw each edge's weight from {0, 1, random}.
ScanRow random_row(std::size_t length, Visits visits, Weights weights, std::uint64_t seed) {
  constexpr std::uint32_t kVertices = 48;
  support::RandomStream rng(seed, length);
  ScanRow row;
  row.epoch = 7;
  row.stamp.assign(kVertices, 6);
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    if (visits == Visits::All || (visits == Visits::Half && rng.next_below(2) == 0)) {
      row.stamp[v] = row.epoch;
    }
  }
  for (std::size_t j = 0; j < length; ++j) {
    row.ins.push_back(rng.next_below(kVertices));
    float w = rng.next_float();
    switch (weights) {
      case Weights::Random: break;
      case Weights::Zero: w = 0.0f; break;
      case Weights::One: w = 1.0f; break;
      case Weights::Mixed: {
        const std::uint32_t pick = rng.next_below(3);
        w = pick == 0 ? 0.0f : pick == 1 ? 1.0f : w;
        break;
      }
    }
    row.ws.push_back(w);
    row.draws.push_back(rng.next_float());
  }
  return row;
}

/// Three edges to vertex 5, then one to 9: the first draw misses, the
/// second fires, the third edge finds 5 visited and takes no draw, and the
/// edge to 9 takes the third draw and fires.
ScanRow repeated_id_row() {
  ScanRow row;
  row.ins = {5, 5, 5, 9};
  row.ws = {0.5f, 0.5f, 0.5f, 0.5f};
  row.stamp.assign(10, 0);
  row.draws = {0.9f, 0.1f, 0.2f, 0.3f};
  return row;
}

/// Every row the scan parity tests run: lengths 0-130 across the 16-lane
/// edges, under each visit pattern and weight kind, two seeds each, and
/// the repeated-id row.
std::vector<ScanRow> scan_rows() {
  std::vector<ScanRow> rows;
  for (const Visits visits : {Visits::None, Visits::All, Visits::Half}) {
    for (const Weights weights : {Weights::Random, Weights::Zero, Weights::One, Weights::Mixed}) {
      for (std::size_t length = 0; length <= 130; ++length) {
        for (const std::uint64_t seed : {11u, 12u}) {
          rows.push_back(random_row(length, visits, weights, seed));
        }
      }
    }
  }
  rows.push_back(repeated_id_row());
  return rows;
}

TEST(ExactScan, RepeatedIdTakesOneDrawAfterItFires) {
  const ScanRow row = repeated_id_row();
  const ScanTrace expected{{1, 3}, 3};
  EXPECT_EQ(reference_sweep(row), expected);
  EXPECT_EQ(scan_sweep(&ExactDraws::scan_scalar, row), expected);
  if (ExactDraws::wide_scan) {
    EXPECT_EQ(scan_sweep(&ExactDraws::scan_avx512, row), expected);
  }
}

TEST(ExactScan, ScalarBodyMatchesTheEdgeLoop) {
  std::size_t hits = 0;
  for (const ScanRow& row : scan_rows()) {
    const ScanTrace expected = reference_sweep(row);
    ASSERT_EQ(scan_sweep(&ExactDraws::scan_scalar, row), expected)
        << "row of " << row.ins.size() << " in-edges";
    hits += expected.hits.size();
  }
  EXPECT_GT(hits, 0u);
}

TEST(ExactScan, WideBodyMatchesTheScalarBody) {
  if (!ExactDraws::wide_scan) GTEST_SKIP() << "the host has no avx512f";
  for (const ScanRow& row : scan_rows()) {
    ASSERT_EQ(scan_sweep(&ExactDraws::scan_avx512, row),
              scan_sweep(&ExactDraws::scan_scalar, row))
        << "row of " << row.ins.size() << " in-edges";
  }
}

// --- sort_set ----------------------------------------------------------------

TEST(SortSet, MatchesStdSortAtEveryWidthAndCutoff) {
  std::vector<VertexId> buffer;
  std::size_t longest = 0;
  for (const std::uint32_t bits : {1u, 7u, 14u, 18u, 24u, 25u, 31u, 32u}) {
    // bit_width(n - 1) == bits; ids are below n.
    const VertexId n = bits == 32 ? std::numeric_limits<VertexId>::max() : VertexId{1} << bits;
    for (const std::size_t want : {std::size_t{0}, std::size_t{1}, kRadixSortMin - 1,
                                   kRadixSortMin, kRadixSortMin + 1, std::size_t{1000}}) {
      const std::size_t size = std::min<std::size_t>(want, n);
      support::RandomStream rng(bits, want);
      std::unordered_set<VertexId> seen;
      std::vector<VertexId> set;
      while (set.size() < size) {
        const VertexId v = bits == 32 ? rng.next_u32() % n : rng.next_below(n);
        if (seen.insert(v).second) set.push_back(v);
      }
      std::vector<VertexId> expected = set;
      std::sort(expected.begin(), expected.end());
      sort_set(set, buffer, n);
      ASSERT_EQ(set, expected) << "bit width " << bits << ", " << size << " ids";
      longest = std::max(longest, size);
      // The buffer grows to the longest set sorted, never towards n.
      EXPECT_LE(buffer.size(), longest);
    }
  }
}

}  // namespace
}  // namespace eim::eim_impl
