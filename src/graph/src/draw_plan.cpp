#include "eim/graph/draw_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace eim::graph {

namespace {

constexpr double kDrawGrid = 16777216.0;  // 2^24, the next_float() lattice

void build_ic_half(const Graph& g, DrawPlan& plan) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  plan.ic_kind.assign(n, static_cast<std::uint8_t>(DrawPlan::IcKind::Empty));
  plan.ic_log1m.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto ws = g.in_weights(static_cast<VertexId>(v));
    if (ws.empty()) continue;  // Empty, preset
    // Bitwise comparison: two weights draw identically iff their bit
    // patterns match (the strict `<` test sees the value, and WC/constant
    // schemes produce bit-identical repeats, never just nearby ones).
    std::uint32_t first = 0;
    std::memcpy(&first, &ws[0], sizeof(first));
    const bool mixed = std::any_of(ws.begin() + 1, ws.end(), [first](Weight w) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &w, sizeof(bits));
      return bits != first;
    });
    if (mixed) {
      plan.ic_kind[v] = static_cast<std::uint8_t>(DrawPlan::IcKind::Mixed);
      continue;
    }
    const double p = grid_success_probability(ws[0]);
    if (p <= 0.0) {
      plan.ic_kind[v] = static_cast<std::uint8_t>(DrawPlan::IcKind::Zero);
    } else if (p >= 1.0) {
      plan.ic_kind[v] = static_cast<std::uint8_t>(DrawPlan::IcKind::Saturated);
    } else {
      plan.ic_kind[v] = static_cast<std::uint8_t>(DrawPlan::IcKind::Uniform);
      plan.ic_log1m[v] = std::log1p(-p);
    }
  }
}

/// Vose alias construction for one vertex. Deterministic: buckets are
/// seeded ascending and the small/large worklists are LIFO, so the table is
/// a pure function of the weight slice.
void build_alias_row(std::span<const Weight> ws, float* prob, std::uint32_t* alias,
                     float* total, std::vector<double>& scaled,
                     std::vector<std::uint32_t>& small_idx,
                     std::vector<std::uint32_t>& large_idx) {
  const auto d = static_cast<std::uint32_t>(ws.size());
  double sum = 0.0;
  std::uint32_t first_pos = kNoAliasPick;
  for (std::uint32_t j = 0; j < d; ++j) {
    const double w = ws[j] > 0.0f ? static_cast<double>(ws[j]) : 0.0;
    if (w > 0.0 && first_pos == kNoAliasPick) first_pos = j;
    sum += w;
  }
  *total = static_cast<float>(sum);
  if (sum <= 0.0 || first_pos == kNoAliasPick) {
    // Every draw lands in the no-one gap; the table is never consulted, but
    // keep it self-consistent (nothing pickable).
    for (std::uint32_t j = 0; j < d; ++j) {
      prob[j] = 0.0f;
      alias[j] = j;
    }
    *total = 0.0f;
    return;
  }

  scaled.resize(d);
  small_idx.clear();
  large_idx.clear();
  for (std::uint32_t j = 0; j < d; ++j) {
    const double w = ws[j] > 0.0f ? static_cast<double>(ws[j]) : 0.0;
    scaled[j] = w * d / sum;
    (scaled[j] < 1.0 ? small_idx : large_idx).push_back(j);
  }
  while (!small_idx.empty() && !large_idx.empty()) {
    const std::uint32_t s = small_idx.back();
    small_idx.pop_back();
    const std::uint32_t l = large_idx.back();
    prob[s] = static_cast<float>(scaled[s]);
    alias[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large_idx.pop_back();
      small_idx.push_back(l);
    }
  }
  // Numerical leftovers: the remaining mass is 1 per bucket up to rounding.
  for (const std::uint32_t l : large_idx) {
    prob[l] = 1.0f;
    alias[l] = l;
  }
  for (const std::uint32_t s : small_idx) {
    if (ws[s] > 0.0f) {
      prob[s] = 1.0f;
      alias[s] = s;
    } else {
      // A zero-weight bucket must never be pickable even when rounding
      // drains the large list first: alias it to a positive-weight edge.
      prob[s] = 0.0f;
      alias[s] = first_pos;
    }
  }
}

void build_lt_half(const Graph& g, DrawPlan& plan) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  plan.lt_prob.assign(static_cast<std::size_t>(g.num_edges()), 0.0f);
  plan.lt_alias.assign(static_cast<std::size_t>(g.num_edges()), 0);
  plan.lt_total.assign(n, 0.0f);
  // One set of worklists for the whole build: per-vertex ones would cost
  // three allocations a vertex.
  std::vector<double> scaled;
  std::vector<std::uint32_t> small_idx;
  std::vector<std::uint32_t> large_idx;
  for (std::size_t v = 0; v < n; ++v) {
    const auto vid = static_cast<VertexId>(v);
    const EdgeId begin = g.in().offsets[vid];
    build_alias_row(g.in_weights(vid), plan.lt_prob.data() + begin,
                    plan.lt_alias.data() + begin, &plan.lt_total[v], scaled, small_idx,
                    large_idx);
  }
}

}  // namespace

double grid_success_probability(float w) noexcept {
  if (!(w > 0.0f)) return 0.0;
  if (w >= 1.0f) return 1.0;
  // Count of lattice points k/2^24 (k in [0, 2^24)) strictly below w:
  // ceil(w * 2^24), exact because a float times 2^24 is exact in double.
  const double count = std::ceil(static_cast<double>(w) * kDrawGrid);
  return std::min(count, kDrawGrid) / kDrawGrid;
}

std::uint64_t DrawPlan::bytes() const noexcept {
  return static_cast<std::uint64_t>(ic_kind.size() * sizeof(std::uint8_t)) +
         ic_log1m.size() * sizeof(double) + lt_prob.size() * sizeof(float) +
         lt_alias.size() * sizeof(std::uint32_t) + lt_total.size() * sizeof(float);
}

DrawPlan build_draw_plan(const Graph& g, DiffusionModel model) {
  DrawPlan plan;
  plan.model = model;
  if (model == DiffusionModel::IndependentCascade) {
    build_ic_half(g, plan);
  } else {
    build_lt_half(g, plan);
  }
  return plan;
}

std::uint32_t alias_pick_lt(const DrawPlan& plan, const Graph& g, VertexId v,
                            float u) noexcept {
  const float total = plan.lt_total[v];
  if (!(u < total)) return kNoAliasPick;  // tau in the no-one gap (or W <= 0)
  const EdgeId begin = g.in().offsets[v];
  const auto d = static_cast<std::uint32_t>(g.in().offsets[v + 1] - begin);
  const double x = static_cast<double>(u) / static_cast<double>(total) *
                   static_cast<double>(d);
  auto bucket = static_cast<std::uint32_t>(x);
  if (bucket >= d) bucket = d - 1;  // u/total rounding at the top edge
  const double coin = x - static_cast<double>(bucket);
  const std::size_t slot = static_cast<std::size_t>(begin) + bucket;
  return coin < static_cast<double>(plan.lt_prob[slot]) ? bucket
                                                        : plan.lt_alias[slot];
}

}  // namespace eim::graph
