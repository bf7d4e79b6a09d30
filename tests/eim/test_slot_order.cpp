// Modeled output repeats bit-for-bit whatever the host schedule. Sampling
// commits are decided in slot order, so a run under capacity pressure —
// where samples miss R's capacity and re-run — and gIM's heap-pressure
// pricing, which scales each in-kernel malloc by its ordinal, must charge
// the same modeled time on every run, even while other runs compete for
// the host thread pool. A wave that runs out of capacity stops at its first
// rejected slot r: only slots before r + B (B blocks) start, whatever runs
// the host cuts the wave into.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "eim/baselines/gim.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/traversal.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/thread_pool.hpp"

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
  *os << std::hexfloat << "{device " << m.device_seconds << " s, kernel "
      << m.kernel_seconds << " s, rejects " << m.commit_rejects << ", waves " << m.waves << ", mallocs "
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

/// Uniform IC weight 0.12 on a BA graph gives sets far above the samplers'
/// first-wave estimate (8 members), so wave 1 runs out of capacity.
const Graph& pressured_graph() {
  static const Graph g = [] {
    Graph graph = Graph::from_edge_list(graph::barabasi_albert(3000, 4, 0.3, 11));
    graph::assign_weights(graph, DiffusionModel::IndependentCascade,
                          {.scheme = graph::WeightScheme::UniformConstant, .value = 0.12f});
    return graph;
  }();
  return g;
}

/// The benchmark device's sampler launch: two blocks per SM.
constexpr std::uint64_t kDefaultBlocks = 2 * 84;

/// eIM's sampler alone, sampling up to each of `targets` in turn on
/// `blocks` blocks (0: the device default).
Modeled run_pressured_eim(std::initializer_list<std::uint64_t> targets,
                          std::uint32_t blocks = 0) {
  const Graph& g = pressured_graph();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  support::metrics::MetricsRegistry registry;
  EimOptions options;
  options.metrics = &registry;
  options.sampler_blocks = blocks;
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

/// The whole gIM pipeline on a smaller graph whose sets also outgrow the
/// first-wave estimate, on a device of `num_sms` SMs (gIM launches two
/// blocks per SM). gIM's padded slot array would not fit the eIM graph.
Modeled run_pressured_gim(std::uint32_t num_sms = 84) {
  static const Graph g = [] {
    Graph graph = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
    graph::assign_weights(
        graph, DiffusionModel::IndependentCascade,
        {.scheme = graph::WeightScheme::UniformConstant, .value = 0.3f});
    return graph;
  }();
  gpusim::DeviceSpec spec = gpusim::make_benchmark_device(256);
  spec.num_sms = num_sms;
  gpusim::Device device(spec);
  support::metrics::MetricsRegistry registry;
  baselines::GimConfig config;
  config.metrics = &registry;
  imm::ImmParams params;
  params.k = 8;
  params.epsilon = 0.3;
  const EimResult r =
      baselines::run_gim(device, g, DiffusionModel::IndependentCascade, params, config);
  return {.device_seconds = r.device_seconds,
          .kernel_seconds = r.kernel_seconds,
          .commit_rejects = registry.counter("rrr.commit_rejects").value(),
          .waves = registry.counter("sampler.waves").value(),
          .mallocs = r.device_mallocs,
          .peak_bytes = r.peak_device_bytes,
          .num_sets = r.num_sets};
}

TEST(SlotOrderCommit, PressuredEimRepeatsUnderHostConcurrency) {
  const std::vector<Modeled> runs =
      run_concurrently([] { return run_pressured_eim({1500, 4000, 9000}); });
  ASSERT_GT(runs[0].commit_rejects, 0u) << "fixture never ran out of capacity";
  for (std::size_t r = 1; r < kRuns; ++r) EXPECT_EQ(runs[r], runs[0]) << "run " << r;
}

// Each sample_to call ends with one wave that fits; every other wave
// overflowed, and at most one rejected slot per block started in it.
TEST(SlotOrderCommit, OverflowingWaveRejectsAtMostOneSlotPerBlock) {
  const Modeled eim = run_pressured_eim({1500, 4000, 9000});
  ASSERT_GT(eim.commit_rejects, 0u) << "fixture never ran out of capacity";
  ASSERT_GT(eim.waves, 3u);
  EXPECT_LE(eim.commit_rejects, kDefaultBlocks * (eim.waves - 3));

  const Modeled gim = run_pressured_gim();
  ASSERT_GT(gim.commit_rejects, 0u) << "fixture never ran out of capacity";
  ASSERT_GT(gim.waves, 1u);
  EXPECT_LE(gim.commit_rejects, kDefaultBlocks * (gim.waves - 1));
}

// One 12,000-slot first wave runs out of capacity at slot r = 3938, inside
// the first 4096-slot host run. Its 168 blocks each finish the slot they
// hold, so slots 3938 .. 4105 start and are rejected: r + B crosses into
// the second run, which generates those 10 slots only. The other 7,894
// never start; all 8,062 re-run in wave 2.
TEST(SlotOrderCommit, PressuredWaveSpanningRunsIsPinned) {
  const Modeled m = run_pressured_eim({12000});
  EXPECT_EQ(m, (Modeled{.device_seconds = 0x1.8aa2cd6697556p-7,
                        .kernel_seconds = 0x1.80ce384e6cbc3p-7,
                        .commit_rejects = kDefaultBlocks,
                        .waves = 2,
                        .peak_bytes = 4048784,
                        .num_sets = 12000}));
}

// More blocks than a host run holds slots: after the overflow at r = 3938,
// slots up to r + 5000 start, across two more run boundaries. Both engines
// charge the same figures on every run under host concurrency.
TEST(SlotOrderCommit, MoreBlocksThanRunSlotsRepeatUnderHostConcurrency) {
  constexpr std::uint32_t kBlocks = 5000;
  static_assert(kBlocks > kRunSlots);
  const std::vector<Modeled> eim =
      run_concurrently([] { return run_pressured_eim({12000}, kBlocks); });
  EXPECT_EQ(eim[0].commit_rejects, kBlocks);
  EXPECT_EQ(eim[0].waves, 2u);
  EXPECT_EQ(eim[0].num_sets, 12000u);
  for (std::size_t r = 1; r < kRuns; ++r) EXPECT_EQ(eim[r], eim[0]) << "run " << r;

  constexpr std::uint32_t kSms = 2100;  // 4,200 gIM blocks
  static_assert(2 * kSms > kRunSlots);
  const std::vector<Modeled> gim =
      run_concurrently([] { return run_pressured_gim(kSms); });
  ASSERT_GT(gim[0].commit_rejects, 0u) << "fixture never ran out of capacity";
  EXPECT_LE(gim[0].commit_rejects, 2 * kSms * (gim[0].waves - 1));
  for (std::size_t r = 1; r < kRuns; ++r) EXPECT_EQ(gim[r], gim[0]) << "run " << r;
}

// run_wave itself, on sets of one member each, so a capacity of C elements
// rejects slot r = C first. Slot s charges 1 + s % 7 cycles to block s % B.
// Only slots [0, r + B) may be settled and charged, and only the started
// rejects count, wherever r + B falls against the host's runs.
class RunWaveEarlyExit
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(RunWaveEarlyExit, ChargesOnlySlotsBeforeTheOverflowPlusOnePerBlock) {
  const auto [blocks, capacity] = GetParam();
  constexpr std::uint64_t kSlots = 12000;
  const gpusim::DeviceSpec spec = gpusim::make_benchmark_device(256);
  gpusim::Device device(spec);
  support::metrics::MetricsRegistry registry;
  DeviceRrrCollection collection(device, 100, /*log_encode=*/false);
  collection.attach_metrics(&registry);
  collection.reserve(kSlots, capacity);
  std::vector<WaveScratch> scratch(support::ThreadPool::global().size() + 1);
  const auto charge = [](std::uint64_t s) { return 1 + s % 7; };
  std::vector<std::pair<std::uint32_t, bool>> settled;
  run_wave(
      device, "test::wave", blocks, kSlots, scratch, collection,
      [&](gpusim::BlockContext& ctx, TraversalScratch& s, std::uint64_t slot) {
        ctx.add_cycles(charge(slot));
        s.queue.assign(1, static_cast<graph::VertexId>(slot % 100));
        return static_cast<std::uint32_t>(slot);
      },
      [&](gpusim::BlockContext&, const WaveSlot& slot, bool admitted) {
        settled.emplace_back(slot.note, admitted);
      });

  const std::uint64_t r = std::min(capacity, kSlots);
  const std::uint64_t end = std::min(kSlots, r + blocks);
  ASSERT_EQ(settled.size(), end);
  for (std::uint64_t s = 0; s < end; ++s) {
    ASSERT_EQ(settled[s], std::make_pair(static_cast<std::uint32_t>(s), s < r)) << s;
  }
  EXPECT_EQ(collection.num_sets(), r);
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), end - r);

  // The same charges, metered by hand onto a fresh device.
  gpusim::Device reference(spec);
  reference.launch_metered("test::wave", blocks, [&](std::span<std::uint64_t> cycles) {
    for (std::uint64_t s = 0; s < end; ++s) cycles[s % blocks] += charge(s);
  });
  EXPECT_EQ(device.timeline().kernel_seconds(), reference.timeline().kernel_seconds());
}

INSTANTIATE_TEST_SUITE_P(
    Overflows, RunWaveEarlyExit,
    ::testing::Values(std::make_tuple(168u, std::uint64_t{1000}),   // inside one run
                      std::make_tuple(168u, std::uint64_t{4000}),   // r + B crosses 4096
                      std::make_tuple(5000u, std::uint64_t{3000}),  // B > a run
                      std::make_tuple(168u, std::uint64_t{11900}),  // r + B past the wave
                      std::make_tuple(168u, std::uint64_t{20000})));  // no overflow

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
