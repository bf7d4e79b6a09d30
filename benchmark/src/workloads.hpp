// The benchmark's five workloads (README.md "Workloads" says why each one
// exists) and the set-up step that builds their input graph.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "eim/eim/options.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"
#include "spans.hpp"

namespace eim::benchmark {

struct Workload {
  std::string_view name;
  /// Registry stand-in abbreviation; empty = the in-process R-MAT graph.
  std::string_view dataset;
  graph::DiffusionModel model;
  eim_impl::DrawMode draw_mode;
  std::uint32_t k;
  double epsilon;
  /// Forward Monte Carlo trials behind the spread metric and check.
  std::uint32_t mc_trials;
  /// FNV-1a digest of solves 0..kDigestSolves-1's seed lists at kDefaultSeed;
  /// empty when none is recorded (Skip draws may change under sampler work).
  std::string_view digest = {};
  /// Device budget ¼ of the unconstrained footprint, host budget ⅛, and a
  /// checkpoint at every round.
  bool spill_ckpt = false;
  /// run_eim_cluster on kClusterNodes × kDevicesPerNode instead of run_eim.
  bool cluster = false;
};

/// The seed run.sh uses unless told otherwise; the digests are recorded at it.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Solves whose seed lists a recorded digest covers.
inline constexpr std::uint32_t kDigestSolves = 2;

inline constexpr std::uint32_t kClusterNodes = 2;
inline constexpr std::uint32_t kDevicesPerNode = 2;
/// Simulated device memory: large enough that only the spill workload's
/// explicit budget ever constrains a run.
inline constexpr std::uint64_t kDeviceMemoryMb = 4096;

[[nodiscard]] std::span<const Workload> all_workloads();
/// nullptr when `name` names no workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// One set-up: edge generation, Graph::from_edge_list, assign_weights (which
/// builds the DrawPlan). The graph is the same on every run. With a
/// recorder, each step gets a span tagged `setup_id`, plus a
/// "graph.draw_plan" span around a second, stand-alone build_draw_plan call
/// so the plan's share can be timed alone.
[[nodiscard]] graph::Graph build_graph(const Workload& w, SpanRecorder* spans = nullptr,
                                       std::uint32_t setup_id = 0);

/// The per-solve IMM parameters: solve `index` of a run seeded `seed`.
[[nodiscard]] imm::ImmParams solve_params(const Workload& w, std::uint64_t seed,
                                          std::uint32_t index);

}  // namespace eim::benchmark
