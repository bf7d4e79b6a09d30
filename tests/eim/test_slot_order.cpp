// Modeled output repeats bit-for-bit whatever the host schedule. Sampling
// commits are decided in slot order, so a run under capacity pressure —
// where samples miss R's capacity and re-run — and gIM's heap-pressure
// pricing, which scales each in-kernel malloc by its ordinal, must charge
// the same modeled time on every run, even while other runs compete for
// the host thread pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <thread>
#include <vector>

#include "eim/baselines/gim.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;

constexpr std::size_t kRuns = 10;
constexpr std::size_t kHostThreads = 4;

struct Modeled {
  double device_seconds = 0.0;
  double kernel_seconds = 0.0;
  std::uint64_t commit_rejects = 0;
  std::uint64_t waves = 0;
  std::uint64_t mallocs = 0;  ///< gIM's in-kernel mallocs
  std::uint64_t peak_bytes = 0;
  std::uint64_t num_sets = 0;

  bool operator==(const Modeled&) const = default;
};

void PrintTo(const Modeled& m, std::ostream* os) {
  *os << "{device " << m.device_seconds << " s, kernel " << m.kernel_seconds
      << " s, rejects " << m.commit_rejects << ", waves " << m.waves << ", mallocs "
      << m.mallocs << ", peak " << m.peak_bytes << " B, sets " << m.num_sets << "}";
}

/// kRuns runs of `run`, kHostThreads at a time on concurrent host threads.
template <class Run>
std::vector<Modeled> run_concurrently(Run&& run) {
  std::vector<Modeled> out(kRuns);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kHostThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = t; r < kRuns; r += kHostThreads) out[r] = run();
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

/// Uniform IC weight 0.12 on a BA graph gives sets far above the sampler's
/// first-wave estimate (8 members), so wave 1 runs out of capacity.
Modeled run_pressured_eim(std::initializer_list<std::uint64_t> targets) {
  static const Graph g = [] {
    Graph graph = Graph::from_edge_list(graph::barabasi_albert(3000, 4, 0.3, 11));
    graph::assign_weights(graph, DiffusionModel::IndependentCascade,
                          {.scheme = graph::WeightScheme::UniformConstant, .value = 0.12f});
    return graph;
  }();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  support::metrics::MetricsRegistry registry;
  EimOptions options;
  options.metrics = &registry;
  imm::ImmParams params;
  params.k = 8;
  DeviceRrrCollection collection(device, g.num_vertices(), /*log_encode=*/true);
  collection.attach_metrics(&registry);
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, params, options);
  for (const std::uint64_t target : targets) sampler.sample_to(collection, target);
  return {.device_seconds = device.timeline().total_seconds(),
          .kernel_seconds = device.timeline().kernel_seconds(),
          .commit_rejects = registry.counter("rrr.commit_rejects").value(),
          .waves = registry.counter("sampler.waves").value(),
          .peak_bytes = device.memory().peak_bytes(),
          .num_sets = collection.num_sets()};
}

TEST(SlotOrderCommit, PressuredEimRepeatsUnderHostConcurrency) {
  const std::vector<Modeled> runs =
      run_concurrently([] { return run_pressured_eim({1500, 4000, 9000}); });
  ASSERT_GT(runs[0].commit_rejects, 0u) << "fixture never ran out of capacity";
  for (std::size_t r = 1; r < kRuns; ++r) EXPECT_EQ(runs[r], runs[0]) << "run " << r;
}

// One 12,000-slot first wave runs out of capacity early, so its rejected
// tail spans several of the host's bounded runs of slots. Every block still
// works through all of its slots, so the charges do not depend on how the
// host cuts the wave into runs.
TEST(SlotOrderCommit, PressuredWaveSpanningRunsIsPinned) {
  const Modeled m = run_pressured_eim({12000});
  // Admission closes at slot 3938, inside the first 4096-slot run; the
  // rest of the wave, 8062 slots, is rejected and re-runs in wave 2.
  EXPECT_EQ(m, (Modeled{.device_seconds = 0x1.0951ffeea9dep-6,
                        .kernel_seconds = 0x1.0467b56294916p-6,
                        .commit_rejects = 8062,
                        .waves = 2,
                        .peak_bytes = 3590288,
                        .num_sets = 12000}));
}

TEST(SlotOrderCommit, GimAtDefaultHeapPressureRepeatsUnderHostConcurrency) {
  static const Graph g = [] {
    Graph graph = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
    graph::assign_weights(graph, DiffusionModel::IndependentCascade);
    return graph;
  }();
  imm::ImmParams params;
  params.k = 8;
  const auto run = [&] {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    baselines::GimConfig config;  // default heap pressure
    config.shared_queue_entries = 4;  // most traversals spill: many mallocs
    const EimResult r =
        baselines::run_gim(device, g, DiffusionModel::IndependentCascade, params, config);
    return Modeled{.device_seconds = r.device_seconds,
                   .kernel_seconds = r.kernel_seconds,
                   .mallocs = r.device_mallocs,
                   .peak_bytes = r.peak_device_bytes,
                   .num_sets = r.num_sets};
  };
  const std::vector<Modeled> runs = run_concurrently(run);
  for (std::size_t r = 1; r < kRuns; ++r) EXPECT_EQ(runs[r], runs[0]) << "run " << r;
}

}  // namespace
}  // namespace eim::eim_impl
