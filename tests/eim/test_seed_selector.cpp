#include "eim/eim/seed_selector.hpp"

#include <gtest/gtest.h>

#include "eim/eim/sampler.hpp"
#include "eim/graph/generators.hpp"
#include "eim/imm/imm.hpp"
#include "eim/imm/rrr_store.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

struct Fixture {
  gpusim::Device device{gpusim::make_benchmark_device(256)};
  Graph g;
  DeviceRrrCollection collection;

  explicit Fixture(VertexId n = 400, std::uint64_t sets = 2000)
      : g(Graph::from_edge_list(graph::barabasi_albert(n, 3, 0.3, 7))),
        collection(device, n, true) {
    graph::assign_weights(g, DiffusionModel::IndependentCascade);
    imm::ImmParams params;
    params.k = 5;
    EimOptions options;
    options.sampler_blocks = 16;
    options.eliminate_sources = false;  // mirror the CPU reference store
    EimSampler sampler(device, g, DiffusionModel::IndependentCascade, params, options);
    sampler.sample_to(collection, sets);
  }
};

TEST(GpuSeedSelector, MatchesCpuGreedyExactly) {
  Fixture fx;
  // CPU reference over the same sample streams.
  imm::RrrStore store(fx.g.num_vertices());
  imm::ImmParams params;
  params.k = 5;
  (void)imm::sample_to_target(fx.g, DiffusionModel::IndependentCascade, params, store,
                              2000);

  GpuSeedSelector selector(fx.device, ScanStrategy::ThreadPerSet);
  const auto gpu_sel = selector.select(fx.collection, 10);
  const auto cpu_sel = imm::select_seeds_greedy(store, 10);
  EXPECT_EQ(gpu_sel.seeds, cpu_sel.seeds);
  EXPECT_EQ(gpu_sel.covered_sets, cpu_sel.covered_sets);
  EXPECT_DOUBLE_EQ(gpu_sel.coverage_fraction, cpu_sel.coverage_fraction);
}

TEST(GpuSeedSelector, WarpStrategySameAnswerDifferentCost) {
  Fixture fx;
  GpuSeedSelector thread_sel(fx.device, ScanStrategy::ThreadPerSet);
  GpuSeedSelector warp_sel(fx.device, ScanStrategy::WarpPerSet);
  const auto a = thread_sel.select(fx.collection, 8);
  const auto b = warp_sel.select(fx.collection, 8);
  EXPECT_EQ(a.seeds, b.seeds);  // strategy affects cost, never the answer
}

TEST(GpuSeedSelector, ChargesPerPickKernels) {
  Fixture fx;
  fx.device.timeline().reset();
  GpuSeedSelector selector(fx.device, ScanStrategy::ThreadPerSet);
  (void)selector.select(fx.collection, 4);
  // 4 argmax + up to 4 update kernels.
  std::size_t argmax = 0;
  std::size_t update = 0;
  for (const auto& seg : fx.device.timeline().segments()) {
    argmax += seg.label == "eim::argmax";
    update += seg.label == "eim::update_counts";
  }
  EXPECT_EQ(argmax, 4u);
  EXPECT_EQ(update, 4u);
}

TEST(GpuSeedSelector, SaturatedSelectionChargesAllKPicks) {
  // One vertex covers every set, so picks 2..k are zero-gain fillers. The
  // device still launches an argmax + update pair per pick; the filler path
  // must charge exactly like the unsaturated one (k pairs total), not bail
  // out after the first pick.
  gpusim::Device device(gpusim::make_benchmark_device(256));
  DeviceRrrCollection collection(device, 10, /*log_encode=*/true);
  collection.reserve(3, 16);
  const std::vector<VertexId> s0{0};
  const std::vector<VertexId> s2{0, 1};
  ASSERT_TRUE(collection.try_commit(s0));
  ASSERT_TRUE(collection.try_commit(s0));
  ASSERT_TRUE(collection.try_commit(s2));

  device.timeline().reset();
  support::metrics::MetricsRegistry registry;
  GpuSeedSelector selector(device, ScanStrategy::ThreadPerSet);
  selector.attach_metrics(&registry);
  const auto sel = selector.select(collection, 5);
  ASSERT_EQ(sel.seeds.size(), 5u);
  EXPECT_EQ(sel.seeds.front(), 0u);

  std::size_t argmax = 0;
  std::size_t update = 0;
  for (const auto& seg : device.timeline().segments()) {
    argmax += seg.label == "eim::argmax";
    update += seg.label == "eim::update_counts";
  }
  EXPECT_EQ(argmax, 5u);
  EXPECT_EQ(update, 5u);
  EXPECT_EQ(registry.counter("selector.argmax_kernels").value(), 5u);
  EXPECT_EQ(registry.counter("selector.update_kernels").value(), 5u);
  EXPECT_EQ(registry.counter("selector.fallback_picks").value(), 4u);
}

TEST(GpuSeedSelector, ThreadScanWinsAtLargeN) {
  // §3.5's scaling law: with N >> W_n, thread-per-set beats warp-per-set;
  // the crossover is what Fig. 3 plots.
  Fixture fx(300, 60'000);

  fx.device.timeline().reset();
  GpuSeedSelector thread_sel(fx.device, ScanStrategy::ThreadPerSet);
  (void)thread_sel.select(fx.collection, 3);
  const double thread_time = fx.device.timeline().kernel_seconds();

  fx.device.timeline().reset();
  GpuSeedSelector warp_sel(fx.device, ScanStrategy::WarpPerSet);
  (void)warp_sel.select(fx.collection, 3);
  const double warp_time = fx.device.timeline().kernel_seconds();

  EXPECT_LT(thread_time, warp_time);
}

TEST(GpuSeedSelector, WarpScanWinsAtSmallN) {
  Fixture fx(300, 300);  // far fewer sets than resident warps

  fx.device.timeline().reset();
  GpuSeedSelector thread_sel(fx.device, ScanStrategy::ThreadPerSet);
  (void)thread_sel.select(fx.collection, 3);
  const double thread_time = fx.device.timeline().kernel_seconds();

  fx.device.timeline().reset();
  GpuSeedSelector warp_sel(fx.device, ScanStrategy::WarpPerSet);
  (void)warp_sel.select(fx.collection, 3);
  const double warp_time = fx.device.timeline().kernel_seconds();

  EXPECT_LE(warp_time, thread_time);
}

// Property pin for the CELF lazy heap: against the linear-reference scan it
// must produce the identical seed sequence (same tie-breaks), identical
// coverage, and identical modeled device time — the heap is a host-side
// accelerator only; the modeled argmax/update kernel charges are shared.
TEST(GpuSeedSelector, LazyHeapMatchesLinearReferenceExactly) {
  for (const std::uint32_t n : {50u, 400u}) {
    for (const std::uint64_t sets : {60ull, 1500ull}) {
      Fixture fx(n, sets);
      // k large enough to drain into the zero-gain filler path on the small
      // configurations, exercising the heap's accurate-zero handoff.
      const std::uint32_t k = std::min(n / 2, 40u);

      fx.device.timeline().reset();
      GpuSeedSelector heap_sel(fx.device, ScanStrategy::ThreadPerSet);
      ASSERT_EQ(heap_sel.argmax_mode(), ArgMaxMode::kLazyHeap);  // the default
      const auto heap_res = heap_sel.select(fx.collection, k);
      const double heap_seconds = fx.device.timeline().kernel_seconds();

      fx.device.timeline().reset();
      GpuSeedSelector ref_sel(fx.device, ScanStrategy::ThreadPerSet);
      ref_sel.set_argmax_mode(ArgMaxMode::kLinearReference);
      const auto ref_res = ref_sel.select(fx.collection, k);
      const double ref_seconds = fx.device.timeline().kernel_seconds();

      EXPECT_EQ(heap_res.seeds, ref_res.seeds) << "n=" << n << " sets=" << sets;
      EXPECT_EQ(heap_res.covered_sets, ref_res.covered_sets);
      EXPECT_DOUBLE_EQ(heap_res.coverage_fraction, ref_res.coverage_fraction);
      EXPECT_EQ(heap_seconds, ref_seconds);  // bit-identical modeled charge
    }
  }
}

TEST(GpuSeedSelector, RepeatedSelectionIsStable) {
  Fixture fx;
  GpuSeedSelector selector(fx.device, ScanStrategy::ThreadPerSet);
  const auto a = selector.select(fx.collection, 6);
  const auto b = selector.select(fx.collection, 6);
  EXPECT_EQ(a.seeds, b.seeds);
}

TEST(GpuSeedSelector, RejectsBadK) {
  Fixture fx;
  GpuSeedSelector selector(fx.device, ScanStrategy::ThreadPerSet);
  EXPECT_THROW((void)selector.select(fx.collection, 0), support::Error);
}

}  // namespace
}  // namespace eim::eim_impl
