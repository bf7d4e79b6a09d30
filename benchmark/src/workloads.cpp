#include "workloads.hpp"

#include <array>

#include "eim/graph/draw_plan.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/registry.hpp"
#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::benchmark {

namespace {

using eim_impl::DrawMode;
constexpr auto kIc = graph::DiffusionModel::IndependentCascade;
constexpr auto kLt = graph::DiffusionModel::LinearThreshold;

/// ic_cluster solves ic_exact's inputs with ic_exact's seeds, so both must
/// reproduce this digest.
constexpr std::string_view kSdExactDigest = "81b423849662469e";

constexpr std::array<Workload, 5> kWorkloads{{
    {"ic_exact", "SD", kIc, DrawMode::Exact, 50, 0.1, 1000, kSdExactDigest},
    {"ic_select", "CA", kIc, DrawMode::Exact, 50, 0.15, 1000, "2510fecfae92583b"},
    {"lt_skip_large", "", kLt, DrawMode::Skip, 50, 0.3, 100},
    {"ic_spill_ckpt", "WV", kIc, DrawMode::Skip, 50, 0.08, 1000, {}, /*spill_ckpt=*/true},
    {"ic_cluster", "SD", kIc, DrawMode::Exact, 50, 0.1, 1000, kSdExactDigest,
     /*spill_ckpt=*/false, /*cluster=*/true},
}};

constexpr std::uint64_t kSolveSeedTag = 0x534f4c56u;  // "SOLV"
/// The R-MAT graph is a fixed input, like the registry stand-ins: --seed
/// varies the solves, not the network, so runs at different seeds measure
/// the same work.
constexpr std::uint64_t kRmatSeed = 0x524d4154u;  // "RMAT"

graph::EdgeList generate_edges(const Workload& w) {
  if (w.dataset.empty()) {
    graph::RmatParams p;
    p.scale = 18;
    p.num_edges = 3'000'000;
    p.a = 0.6;
    p.b = 0.18;
    p.c = 0.18;
    p.d = 0.04;
    p.reciprocal_fraction = 0.3;
    return graph::rmat(p, kRmatSeed);
  }
  // The registry's canonical stand-in, the same graph bench/ measures.
  const auto spec = graph::find_dataset(w.dataset);
  EIM_CHECK_MSG(spec.has_value(), "unknown dataset stand-in");
  return graph::build_dataset_edges(*spec);
}

}  // namespace

std::span<const Workload> all_workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

graph::Graph build_graph(const Workload& w, SpanRecorder* spans, std::uint32_t setup_id) {
  graph::EdgeList edges = [&] {
    const ScopedSpan span(spans, "graph.generate", setup_id);
    return generate_edges(w);
  }();
  graph::Graph g = [&] {
    const ScopedSpan span(spans, "graph.csc", setup_id);
    return graph::Graph::from_edge_list(edges);
  }();
  {
    const ScopedSpan span(spans, "graph.weights", setup_id);
    graph::assign_weights(g, w.model,
                          graph::WeightParams{.scheme = graph::WeightScheme::InDegree});
  }
  if (spans != nullptr) {
    const ScopedSpan span(spans, "graph.draw_plan", setup_id);
    const graph::DrawPlan plan = graph::build_draw_plan(g, w.model);
    EIM_CHECK_MSG(plan.bytes() == g.draw_plan()->bytes(), "draw plan rebuild differs");
  }
  return g;
}

imm::ImmParams solve_params(const Workload& w, std::uint64_t seed, std::uint32_t index) {
  imm::ImmParams p;
  p.k = w.k;
  p.epsilon = w.epsilon;
  p.rng_seed = support::derive_stream(kSolveSeedTag, seed, index);
  return p;
}

}  // namespace eim::benchmark
