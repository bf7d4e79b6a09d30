// Property tests on the cost model: the qualitative orderings every
// reproduced experiment rests on must hold for any sane cost table.
#include <gtest/gtest.h>

#include "eim/gpusim/device.hpp"
#include "eim/support/bits.hpp"

namespace eim::gpusim {
namespace {

TEST(CostModel, GlobalSlowerThanShared) {
  const DeviceSpec spec;
  EXPECT_GT(spec.costs.global_latency, spec.costs.shared_latency);
}

TEST(CostModel, MallocDwarfsMemoryOps) {
  const DeviceSpec spec;
  EXPECT_GT(spec.costs.device_malloc, 10 * spec.costs.global_latency);
}

TEST(CostModel, MoreWorkNeverFinishesFaster) {
  // Makespan is monotone in per-block work.
  Device device;
  const auto light = device.launch_blocks("light", 32, [](BlockContext& ctx) {
    ctx.add_cycles(100);
  });
  const auto heavy = device.launch_blocks("heavy", 32, [](BlockContext& ctx) {
    ctx.add_cycles(1000);
  });
  EXPECT_GT(heavy.makespan_cycles, light.makespan_cycles);
}

TEST(CostModel, MoreParallelSlotsNeverSlower) {
  DeviceSpec narrow;
  narrow.num_sms = 2;
  DeviceSpec wide;
  wide.num_sms = 64;
  Device a(narrow);
  Device b(wide);
  auto body = [](BlockContext& ctx) { ctx.add_cycles(500); };
  const auto slow = a.launch_blocks("n", 512, body);
  const auto fast = b.launch_blocks("w", 512, body);
  EXPECT_GE(slow.makespan_cycles, fast.makespan_cycles);
  EXPECT_EQ(slow.work_cycles, fast.work_cycles);  // same total work
}

TEST(CostModel, TransferMonotoneInBytes) {
  Device device;
  device.transfer_to_device("a", 1000);
  const double small = device.timeline().transfer_seconds();
  device.timeline().reset();
  device.transfer_to_device("b", 1'000'000);
  EXPECT_GT(device.timeline().transfer_seconds(), small);
}

TEST(CostModel, AtomicContentionMonotone) {
  const DeviceSpec spec;
  std::uint64_t prev = 0;
  for (std::uint64_t lanes = 1; lanes <= 32; lanes *= 2) {
    BlockContext ctx(0, spec);
    ctx.charge_atomic_global(lanes);
    EXPECT_GT(ctx.cycles(), prev);
    prev = ctx.cycles();
  }
}

// The work-span invariant across grid shapes: a fixed amount of per-block
// work can never beat the span bound or the work bound.
class GridShapes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GridShapes, MakespanRespectsWorkAndSpanBounds) {
  const std::uint32_t blocks = GetParam();
  Device device;
  constexpr std::uint64_t kPerBlock = 300;
  const auto stats = device.launch_blocks("grid", blocks, [](BlockContext& ctx) {
    ctx.add_cycles(kPerBlock);
  });
  // Span bound: no faster than one block's work.
  EXPECT_GE(stats.makespan_cycles, kPerBlock);
  // Work bound: no faster than total work / resident warp slots.
  const std::uint64_t slots = device.spec().max_resident_warps();
  EXPECT_GE(stats.makespan_cycles,
            support::div_ceil<std::uint64_t>(blocks, slots) * kPerBlock);
}

INSTANTIATE_TEST_SUITE_P(Widths, GridShapes,
                         ::testing::Values(1u, 32u, 1000u, 50'000u, 200'000u,
                                           1'000'000u));

}  // namespace
}  // namespace eim::gpusim
