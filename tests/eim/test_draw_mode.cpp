// Fast-draw sampling mode (--draw-mode skip): statistical regression tests
// pinning the geometric skip-ahead to the per-edge Bernoulli distribution
// and the alias tables to the exact prefix-scan distribution, plus the
// end-to-end guarantees the mode ships with (spread equivalence, multi-GPU
// bit-identity within the mode, checkpoint identity across modes).
//
// The chi-square / KS critical values used below are for alpha ~= 1e-3 with
// generous headroom: all draws come from fixed seeds, so each assertion is
// deterministic — the margin guards against an unlucky fixed sample, not
// against flaky reruns.
#include "eim/graph/draw_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "eim/diffusion/forward.hpp"
#include "eim/eim/checkpoint.hpp"
#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/rng.hpp"
#include "eim/support/stats.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::DrawPlan;
using graph::Graph;
using support::RandomStream;

constexpr double kGrid = 16777216.0;  // 2^24, the next_float() draw grid

Graph make_graph(DiffusionModel model, graph::VertexId n = 400) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(n, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 5;
  p.epsilon = 0.3;
  return p;
}

EimOptions skip_options() {
  EimOptions o;
  o.draw_mode = DrawMode::Skip;
  return o;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path(::testing::TempDir() + stem + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

struct DevicePool {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  explicit DevicePool(std::uint32_t n, std::uint64_t mb = 256) {
    for (std::uint32_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(mb)));
      ptrs.push_back(owned.back().get());
    }
  }
};

void expect_same_answer(const EimResult& a, const EimResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_sets, b.num_sets);
  EXPECT_EQ(a.total_elements, b.total_elements);
  EXPECT_EQ(a.singletons_discarded, b.singletons_discarded);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
  EXPECT_DOUBLE_EQ(a.estimated_spread, b.estimated_spread);
}

/// A tiny star graph: in-edges (src -> center) for each listed weight, so
/// center's CSC slice is exactly `weights` in source order. Installs a
/// hand-built DrawPlan for `model` (assign_weights would overwrite the
/// weights we are pinning).
Graph make_star(const std::vector<float>& weights, DiffusionModel model) {
  const auto n = static_cast<graph::VertexId>(weights.size() + 1);
  graph::EdgeList edges(n);
  for (graph::VertexId s = 0; s + 1 < n; ++s) edges.add_edge(s, n - 1);
  edges.normalize();
  Graph g = Graph::from_edge_list(edges);
  auto& w = g.mutable_in_weights();
  const graph::EdgeId begin = g.in().offsets[n - 1];
  for (std::size_t j = 0; j < weights.size(); ++j) w[begin + j] = weights[j];
  g.sync_out_weights_from_in();
  g.set_draw_plan(std::make_shared<DrawPlan>(graph::build_draw_plan(g, model)));
  return g;
}

// ---------------------------------------------------------------------------
// Quantization: grid_success_probability vs the actual 24-bit draw grid.
// ---------------------------------------------------------------------------

TEST(DrawModeGrid, BruteForceCountOverTheFullGrid) {
  // next_float() yields exactly k * 2^-24 for k in [0, 2^24). Count the grid
  // points the strict per-edge test accepts and require the cached p_eff to
  // be that count over the grid size — the property that makes the geometric
  // jump distribution match the exact kernel draw-for-draw.
  const float w = 0.3f;
  std::uint64_t accepted = 0;
  for (std::uint32_t k = 0; k < (1u << 24); ++k) {
    if (static_cast<float>(k) * 0x1.0p-24f < w) ++accepted;
  }
  EXPECT_DOUBLE_EQ(graph::grid_success_probability(w),
                   static_cast<double>(accepted) / kGrid);
}

TEST(DrawModeGrid, BoundaryPointsAtEveryScale) {
  // For each weight, the grid point just below ceil(w * 2^24) must pass the
  // strict test and the one at it must fail — the two-sided check that pins
  // the ceil without another full sweep. Includes the weight-granularity
  // floor 2^-24 and a weight strictly between two grid points.
  for (const float w : {0x1.0p-24f, 1.5f * 0x1.0p-24f, 0x1.0p-23f, 0.001f, 0.05f,
                        0.3f, 0.999f, 0.9999999f}) {
    SCOPED_TRACE(w);
    const double p = graph::grid_success_probability(w);
    const auto count = static_cast<std::uint64_t>(p * kGrid + 0.5);
    ASSERT_GT(count, 0u);
    ASSERT_LE(count, 1u << 24);
    EXPECT_LT(static_cast<float>(count - 1) * 0x1.0p-24f, w);
    if (count < (1u << 24)) {
      EXPECT_GE(static_cast<float>(count) * 0x1.0p-24f, w);
    }
  }
  EXPECT_DOUBLE_EQ(graph::grid_success_probability(0x1.0p-24f), 0x1.0p-24);
  EXPECT_DOUBLE_EQ(graph::grid_success_probability(0.0f), 0.0);
  EXPECT_DOUBLE_EQ(graph::grid_success_probability(-0.5f), 0.0);
  EXPECT_DOUBLE_EQ(graph::grid_success_probability(1.0f), 1.0);
  EXPECT_DOUBLE_EQ(graph::grid_success_probability(2.0f), 1.0);
}

// ---------------------------------------------------------------------------
// Geometric skip-ahead vs per-edge Bernoulli.
// ---------------------------------------------------------------------------

TEST(DrawModeGeometric, ActivationCountsMatchBernoulliPerPosition) {
  // Sweep a 32-edge row N times with the skip recurrence and require the
  // per-position activation counts to pass a chi-square test against the
  // exact Bernoulli expectation N * p_eff — position-resolved, so an
  // off-by-one in the jump (activating j instead of j+1+s) fails loudly.
  // Also KS-compare the per-trial success-count samples against a per-edge
  // reference so the row-total distribution matches, not just the margins.
  constexpr int kEdges = 32;
  constexpr int kTrials = 4000;
  for (const float w : {0.3f, 0.05f}) {
    SCOPED_TRACE(w);
    const double p = graph::grid_success_probability(w);
    const double log1m = std::log1p(-p);

    std::vector<double> observed(kEdges, 0.0);
    std::vector<double> skip_totals;
    std::vector<double> exact_totals;
    for (int t = 0; t < kTrials; ++t) {
      RandomStream rng(9, static_cast<std::uint64_t>(t));
      double successes = 0.0;
      std::uint64_t j = support::geometric_skip(rng, log1m);
      while (j < kEdges) {
        observed[j] += 1.0;
        successes += 1.0;
        const std::uint64_t s = support::geometric_skip(rng, log1m);
        if (s >= static_cast<std::uint64_t>(kEdges) - 1 - j) break;
        j += 1 + s;
      }
      skip_totals.push_back(successes);

      RandomStream ref(17, static_cast<std::uint64_t>(t));
      double ref_successes = 0.0;
      for (int e = 0; e < kEdges; ++e) {
        if (ref.next_float() < w) ref_successes += 1.0;
      }
      exact_totals.push_back(ref_successes);
    }

    const std::vector<double> expected(kEdges, kTrials * p);
    // chi-square critical value for df = 32 at alpha = 1e-3 is 62.5.
    EXPECT_LT(support::chi_square_statistic(observed, expected), 70.0);
    // Two-sample KS at alpha = 1e-3 with n = m = 4000 rejects above 0.044.
    EXPECT_LT(support::ks_statistic(skip_totals, exact_totals), 0.06);
  }
}

TEST(DrawModeGeometric, GranularityFloorMeanSkipIsTwoToTheTwentyFour) {
  // The 2^-24 weight-granularity edge: the smallest representable success
  // probability must produce geometric jumps with mean (1-p)/p ~= 2^24 - 1.
  // A mis-quantized p (e.g. nextafter drift to 2^-25 or 2^-23) moves the
  // mean by 2x and fails the 10% window by a wide margin.
  const double p = graph::grid_success_probability(0x1.0p-24f);
  const double log1m = std::log1p(-p);
  RandomStream rng(33, 1);
  constexpr int kDraws = 3000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t s = support::geometric_skip(rng, log1m);
    ASSERT_NE(s, support::kGeometricNever);
    sum += static_cast<double>(s);
  }
  const double mean = sum / kDraws;
  const double expected_mean = (1.0 - p) / p;
  EXPECT_NEAR(mean, expected_mean, 0.10 * expected_mean);
}

// ---------------------------------------------------------------------------
// Alias tables vs the exact prefix scan.
// ---------------------------------------------------------------------------

TEST(DrawModeAlias, PickFrequenciesMatchPrefixScan) {
  // Star row with a zero-weight in-edge and total weight 0.5: pick counts
  // must match the weights, the zero-weight bucket must never be picked,
  // and draws landing in [W, 1) must fall into the no-one gap exactly as
  // the exact scan's tau beyond the last cumulative sum.
  const std::vector<float> weights = {0.3f, 0.0f, 0.15f, 0.05f};
  const Graph g = make_star(weights, DiffusionModel::LinearThreshold);
  const DrawPlan* plan = g.draw_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->has_lt());
  const graph::VertexId center = g.num_vertices() - 1;
  EXPECT_FLOAT_EQ(plan->lt_total[center], 0.5f);

  constexpr int kPicks = 300000;
  const std::size_t cells = weights.size() + 1;  // edges + the no-one gap
  std::vector<double> alias_counts(cells, 0.0);
  std::vector<double> scan_counts(cells, 0.0);
  RandomStream rng(5, 11);
  for (int i = 0; i < kPicks; ++i) {
    const float u = rng.next_float();

    const std::uint32_t pick = graph::alias_pick_lt(*plan, g, center, u);
    if (pick == graph::kNoAliasPick) {
      alias_counts[weights.size()] += 1.0;
    } else {
      ASSERT_LT(pick, weights.size());
      alias_counts[pick] += 1.0;
    }

    // The exact walk_lt scan on the same draw (float accumulation, strict <).
    float cum = 0.0f;
    std::size_t scan_pick = weights.size();
    for (std::size_t j = 0; j < weights.size(); ++j) {
      cum += weights[j];
      if (u < cum) {
        scan_pick = j;
        break;
      }
    }
    scan_counts[scan_pick] += 1.0;
  }

  // The fixed-zero cell is asserted exactly; chi_square_statistic skips it.
  EXPECT_EQ(alias_counts[1], 0.0);
  EXPECT_EQ(scan_counts[1], 0.0);

  std::vector<double> expected;
  for (const float w : weights) expected.push_back(kPicks * static_cast<double>(w));
  expected.push_back(kPicks * 0.5);  // no-one gap: 1 - W
  // 4 positive-expectation cells -> df = 3; critical value at 1e-3 is 16.3.
  EXPECT_LT(support::chi_square_statistic(alias_counts, expected), 25.0);
  EXPECT_LT(support::chi_square_statistic(scan_counts, expected), 25.0);
}

TEST(DrawModeAlias, DegenerateRows) {
  // All-zero row: every draw falls into the no-one gap.
  const Graph zero = make_star({0.0f, 0.0f, 0.0f}, DiffusionModel::LinearThreshold);
  const graph::VertexId zc = zero.num_vertices() - 1;
  RandomStream rng(7, 3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(graph::alias_pick_lt(*zero.draw_plan(), zero, zc, rng.next_float()),
              graph::kNoAliasPick);
  }
  // Full row (W = 1): no gap, every draw picks a positive-weight edge.
  const Graph full = make_star({0.25f, 0.5f, 0.25f}, DiffusionModel::LinearThreshold);
  const graph::VertexId fc = full.num_vertices() - 1;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t pick =
        graph::alias_pick_lt(*full.draw_plan(), full, fc, rng.next_float());
    ASSERT_NE(pick, graph::kNoAliasPick);
    ASSERT_LT(pick, 3u);
  }
}

// ---------------------------------------------------------------------------
// IC classification.
// ---------------------------------------------------------------------------

TEST(DrawModePlan, ClassifiesEveryIcRowKind) {
  // One star per kind; the center vertex is the classified row.
  const auto kind_of = [](const std::vector<float>& ws) {
    const Graph g = make_star(ws, DiffusionModel::IndependentCascade);
    return g.draw_plan()->kind(g.num_vertices() - 1);
  };
  EXPECT_EQ(kind_of({0.3f, 0.3f, 0.3f}), DrawPlan::IcKind::Uniform);
  EXPECT_EQ(kind_of({1.0f, 1.0f}), DrawPlan::IcKind::Saturated);
  EXPECT_EQ(kind_of({0.0f, 0.0f}), DrawPlan::IcKind::Zero);
  EXPECT_EQ(kind_of({0.5f, 0.25f}), DrawPlan::IcKind::Mixed);

  // Leaf vertices have no in-edges at all.
  const Graph g = make_star({0.3f}, DiffusionModel::IndependentCascade);
  EXPECT_EQ(g.draw_plan()->kind(0), DrawPlan::IcKind::Empty);
  // The Uniform cache is exactly log1p(-p_eff) for the shared weight.
  const Graph u = make_star({0.3f, 0.3f}, DiffusionModel::IndependentCascade);
  EXPECT_DOUBLE_EQ(u.draw_plan()->ic_log1m[u.num_vertices() - 1],
                   std::log1p(-graph::grid_success_probability(0.3f)));
}

TEST(DrawModePlan, MutableWeightAccessInvalidatesThePlan) {
  Graph g = make_graph(DiffusionModel::IndependentCascade);
  ASSERT_NE(g.draw_plan(), nullptr);
  (void)g.mutable_in_weights();
  EXPECT_EQ(g.draw_plan(), nullptr);
  // A skip-mode run on a plan-less graph silently falls back to the exact
  // kernels and still completes.
  gpusim::Device dev(gpusim::make_benchmark_device(256));
  const EimResult r = run_eim(dev, g, DiffusionModel::IndependentCascade,
                              make_params(), skip_options());
  EXPECT_EQ(r.seeds.size(), make_params().k);
}

// ---------------------------------------------------------------------------
// End-to-end: spread equivalence, degenerate bit-identity, counters.
// ---------------------------------------------------------------------------

TEST(DrawModeEndToEnd, SaturatedWeightsGiveBitIdenticalSeedsAcrossModes) {
  // With every weight at 1.0 activation is deterministic, so Exact and Skip
  // consume different draw counts but must commit identical sets — the
  // strongest cross-mode check that exists without statistics.
  Graph g = Graph::from_edge_list(graph::barabasi_albert(300, 3, 0.3, 7));
  graph::WeightParams wp;
  wp.scheme = graph::WeightScheme::UniformConstant;
  wp.value = 1.0f;
  graph::assign_weights(g, DiffusionModel::IndependentCascade, wp);
  const imm::ImmParams params = make_params();

  gpusim::Device exact_dev(gpusim::make_benchmark_device(256));
  const EimResult exact =
      run_eim(exact_dev, g, DiffusionModel::IndependentCascade, params);
  gpusim::Device skip_dev(gpusim::make_benchmark_device(256));
  const EimResult skip = run_eim(skip_dev, g, DiffusionModel::IndependentCascade,
                                 params, skip_options());
  expect_same_answer(exact, skip);
}

TEST(DrawModeEndToEnd, SkipSpreadMatchesExactForBothModels) {
  for (const DiffusionModel model :
       {DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold}) {
    SCOPED_TRACE(graph::to_string(model));
    const Graph g = make_graph(model, 500);
    const imm::ImmParams params = make_params();

    gpusim::Device exact_dev(gpusim::make_benchmark_device(256));
    const EimResult exact = run_eim(exact_dev, g, model, params);

    support::metrics::MetricsRegistry reg;
    gpusim::Device skip_dev(gpusim::make_benchmark_device(256));
    EimOptions options = skip_options();
    options.metrics = &reg;
    const EimResult skip = run_eim(skip_dev, g, model, params, options);

    ASSERT_EQ(exact.seeds.size(), params.k);
    ASSERT_EQ(skip.seeds.size(), params.k);
    const double exact_spread =
        diffusion::estimate_spread(g, model, exact.seeds, 400, 11).mean;
    const double skip_spread =
        diffusion::estimate_spread(g, model, skip.seeds, 400, 11).mean;
    // Both modes sample the same distribution, so the chosen seed sets must
    // be interchangeable up to Monte Carlo noise — same tolerance the
    // bench_quality equivalence gate uses.
    EXPECT_NEAR(skip_spread, exact_spread, 0.05 * exact_spread);

    // The skip run exercised its fast path, visible through the counters.
    if (model == DiffusionModel::IndependentCascade) {
      EXPECT_GT(reg.counter("sampler.draws_skipped").value(), 0u);
    } else {
      EXPECT_GT(reg.counter("sampler.alias_picks").value(), 0u);
    }
  }
}

TEST(DrawModeEndToEnd, MultiGpuSkipMatchesSingleDeviceSkip) {
  // The per-global-id stream contract holds within the mode: a 3-device
  // skip run must produce the bit-identical answer of a single-device one.
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  const imm::ImmParams params = make_params();

  gpusim::Device single(gpusim::make_benchmark_device(256));
  const EimResult reference = run_eim(single, g, DiffusionModel::IndependentCascade,
                                      params, skip_options());

  DevicePool pool(3);
  const EimResult sharded = run_eim_multi(
      pool.ptrs, g, DiffusionModel::IndependentCascade, params, skip_options());
  expect_same_answer(reference, sharded);
}

// ---------------------------------------------------------------------------
// Checkpoint identity.
// ---------------------------------------------------------------------------

TEST(DrawModeCheckpoint, ResumeRejectsASilentModeSwitch) {
  TempDir dir("eim_drawmode_mismatch");
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  const imm::ImmParams params = make_params();

  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options = skip_options();
  options.checkpoint_dir = dir.path;
  (void)run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);

  const CheckpointState ckpt = load_checkpoint(dir.path);
  EXPECT_EQ(ckpt.draw_mode, static_cast<std::uint8_t>(DrawMode::Skip));

  const EimOptions exact_options;  // DrawMode::Exact
  try {
    validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, params,
                        exact_options);
    FAIL() << "expected InvalidArgumentError";
  } catch (const support::InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("draw_mode"), std::string::npos);
  }
  // The matching mode passes.
  validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, params,
                      skip_options());

  // And the other direction: an exact checkpoint refuses a skip resume.
  TempDir exact_dir("eim_drawmode_mismatch_exact");
  gpusim::Device dev2(gpusim::make_benchmark_device(256));
  EimOptions exact_ckpt_options;
  exact_ckpt_options.checkpoint_dir = exact_dir.path;
  (void)run_eim(dev2, g, DiffusionModel::IndependentCascade, params,
                exact_ckpt_options);
  const CheckpointState exact_ckpt = load_checkpoint(exact_dir.path);
  EXPECT_EQ(exact_ckpt.draw_mode, static_cast<std::uint8_t>(DrawMode::Exact));
  EXPECT_THROW(validate_checkpoint(exact_ckpt, g, DiffusionModel::IndependentCascade,
                                   params, skip_options()),
               support::InvalidArgumentError);
}

TEST(DrawModeCheckpoint, SkipRunResumesBitIdentical) {
  const Graph g = make_graph(DiffusionModel::LinearThreshold);
  const imm::ImmParams params = make_params();

  gpusim::Device ref_dev(gpusim::make_benchmark_device(256));
  const EimResult reference = run_eim(ref_dev, g, DiffusionModel::LinearThreshold,
                                      params, skip_options());
  const std::uint64_t total_ordinals = ref_dev.kernel_launch_ordinal();
  ASSERT_GT(total_ordinals, 0u);

  TempDir dir("eim_drawmode_resume");
  gpusim::Device doomed(gpusim::make_benchmark_device(256));
  gpusim::FaultPlan plan;
  plan.process_abort_kernel_ordinal = total_ordinals / 2;
  doomed.set_fault_plan(plan);
  EimOptions options = skip_options();
  options.checkpoint_dir = dir.path;
  try {
    (void)run_eim(doomed, g, DiffusionModel::LinearThreshold, params, options);
    FAIL() << "scripted abort did not fire";
  } catch (const support::ProcessAbortError&) {
  }

  CheckpointState ckpt = load_checkpoint(dir.path);
  gpusim::Device fresh(gpusim::make_benchmark_device(256));
  EimOptions resume_options = skip_options();
  resume_options.resume = &ckpt;
  const EimResult resumed = run_eim(fresh, g, DiffusionModel::LinearThreshold,
                                    params, resume_options);
  expect_same_answer(reference, resumed);
}

TEST(DrawModeCheckpoint, OldManifestWithoutDrawModeDecodesAsExact) {
  // Manifests written before the field existed must keep loading and must
  // mean Exact — the only mode that existed when they were written.
  TempDir dir("eim_drawmode_old_manifest");
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  const imm::ImmParams params = make_params();
  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = dir.path;
  (void)run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);

  const std::string manifest_path = dir.path + "/manifest.json";
  std::string manifest;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    manifest = buf.str();
  }
  const std::size_t key = manifest.find("\"draw_mode\"");
  ASSERT_NE(key, std::string::npos);
  const std::size_t comma = manifest.find(',', key);
  ASSERT_NE(comma, std::string::npos);
  manifest.erase(key, comma - key + 1);
  std::ofstream(manifest_path, std::ios::binary) << manifest;

  const CheckpointState ckpt = load_checkpoint(dir.path);
  EXPECT_EQ(ckpt.draw_mode, static_cast<std::uint8_t>(DrawMode::Exact));
  validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, params,
                      EimOptions{});
}

}  // namespace
}  // namespace eim::eim_impl
