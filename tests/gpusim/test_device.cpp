#include "eim/gpusim/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "eim/support/error.hpp"

namespace eim::gpusim {
namespace {

TEST(Device, DefaultSpecIsA6000Like) {
  Device device;
  EXPECT_EQ(device.spec().num_sms, 84u);
  EXPECT_EQ(device.spec().warp_size, 32u);
  EXPECT_EQ(device.spec().global_memory_bytes, 48ull << 30);
}

TEST(Device, BenchmarkSpecShrinksMemoryOnly) {
  const DeviceSpec spec = make_benchmark_device(64);
  EXPECT_EQ(spec.global_memory_bytes, 64ull << 20);
  EXPECT_EQ(spec.num_sms, DeviceSpec{}.num_sms);
}

TEST(Device, LaunchBlocksRunsEveryBlock) {
  Device device;
  std::atomic<std::uint32_t> ran{0};
  const KernelStats stats = device.launch_blocks("touch", 64, [&](BlockContext& ctx) {
    ++ran;
    ctx.charge_alu(1);
  });
  EXPECT_EQ(ran.load(), 64u);
  EXPECT_EQ(stats.units, 64u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(Device, BlockIdsAreDense) {
  Device device;
  std::vector<std::atomic<int>> seen(32);
  device.launch_blocks("ids", 32, [&](BlockContext& ctx) { ++seen[ctx.block_id()]; });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Device, MakespanIsMaxWhenBlocksFitResidency) {
  Device device;
  // 4 blocks on a device with thousands of warp slots: makespan = slowest.
  const KernelStats stats = device.launch_blocks("skew", 4, [](BlockContext& ctx) {
    ctx.add_cycles(ctx.block_id() == 3 ? 1000 : 10);
  });
  EXPECT_EQ(stats.makespan_cycles, 1000u);
  EXPECT_EQ(stats.work_cycles, 1030u);
}

TEST(Device, OversubscribedBlocksSerialise) {
  DeviceSpec tiny;
  tiny.num_sms = 1;
  tiny.max_warps_per_sm = 2;  // only two resident slots
  Device device(tiny);
  const KernelStats stats =
      device.launch_blocks("waves", 8, [](BlockContext& ctx) { ctx.add_cycles(100); });
  // 8 blocks on 2 slots -> 4 waves of 100 cycles.
  EXPECT_EQ(stats.makespan_cycles, 400u);
}

TEST(Device, OversubscribedBlocksFillTheLeastLoadedSlot) {
  DeviceSpec tiny;
  tiny.num_sms = 1;
  tiny.max_warps_per_sm = 2;
  Device device(tiny);
  // Block 0 holds one slot for 300 cycles while blocks 1-3 queue on the
  // other: 300 cycles, not the 400 of round-robin placement.
  const KernelStats stats = device.launch_blocks("uneven", 4, [](BlockContext& ctx) {
    ctx.add_cycles(ctx.block_id() == 0 ? 300 : 100);
  });
  EXPECT_EQ(stats.makespan_cycles, 300u);
  EXPECT_EQ(stats.work_cycles, 600u);
}

TEST(Device, ZeroBlockLaunchIsRefused) {
  Device device;
  bool ran = false;
  EXPECT_THROW((void)device.launch_blocks("none", 0, [&](BlockContext&) { ran = true; }),
               support::Error);
  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(device.timeline().kernel_seconds(), 0.0);
}

TEST(Device, KernelTimeIncludesLaunchOverhead) {
  Device device;
  const KernelStats stats =
      device.launch_blocks("empty", 1, [](BlockContext&) {});
  EXPECT_NEAR(stats.seconds, device.spec().costs.kernel_launch_us * 1e-6, 1e-9);
}

TEST(Device, TransferTimeScalesWithBytes) {
  Device device;
  device.transfer_to_device("small", 1 << 10);
  const double small = device.timeline().transfer_seconds();
  device.transfer_to_host("large", 1 << 30);
  const double large = device.timeline().transfer_seconds() - small;
  EXPECT_GT(large, 10.0 * small);
  // 1 GiB at 12 GB/s is ~90 ms.
  EXPECT_NEAR(large, (1 << 30) / 12e9, 0.01);
}

TEST(Device, TimelineAccumulatesByKind) {
  Device device;
  device.launch_blocks("k", 1, [](BlockContext& ctx) { ctx.add_cycles(1000); });
  device.transfer_to_device("t", 4096);
  device.charge_allocation_event("a");
  const DeviceTimeline& tl = device.timeline();
  EXPECT_GT(tl.kernel_seconds(), 0.0);
  EXPECT_GT(tl.transfer_seconds(), 0.0);
  EXPECT_GT(tl.allocation_seconds(), 0.0);
  EXPECT_NEAR(tl.total_seconds(),
              tl.kernel_seconds() + tl.transfer_seconds() + tl.allocation_seconds(),
              1e-12);
  EXPECT_EQ(tl.segments().size(), 3u);
}

TEST(Device, TimelineResetClearsEverything) {
  Device device;
  device.transfer_to_device("t", 4096);
  device.timeline().reset();
  EXPECT_EQ(device.timeline().total_seconds(), 0.0);
  EXPECT_TRUE(device.timeline().segments().empty());
}

TEST(Device, TimelineResetReleasesSegmentCapacity) {
  Device device;
  for (int i = 0; i < 1000; ++i) device.charge_allocation_event("a");
  ASSERT_GE(device.timeline().segments().capacity(), 1000u);
  device.timeline().reset();
  // reset() must swap the vector away, not just clear() it — a long run's
  // ledger should not pin memory after the stats were harvested.
  EXPECT_EQ(device.timeline().segments().capacity(), 0u);
}

TEST(Device, TimelineSegmentsCarryStartAndSequence) {
  Device device;
  device.transfer_to_device("t0", 4096);
  device.launch_blocks("k0", 1, [](BlockContext& ctx) { ctx.add_cycles(1000); });
  device.charge_allocation_event("a0");
  const auto& segs = device.timeline().segments();
  ASSERT_EQ(segs.size(), 3u);
  // The modeled clock is serial per device: each segment starts exactly
  // where the previous one ended, starting from zero, and sequence ids are
  // dense in ledger order.
  double clock = 0.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].sequence, i);
    EXPECT_DOUBLE_EQ(segs[i].start, clock);
    EXPECT_GT(segs[i].seconds, 0.0);
    clock += segs[i].seconds;
  }
  EXPECT_DOUBLE_EQ(clock, device.timeline().total_seconds());
}

TEST(Device, TimelineSequenceContinuesAcrossReset) {
  Device device;
  device.charge_allocation_event("a0");
  device.charge_allocation_event("a1");
  device.timeline().reset();
  device.charge_allocation_event("a2");
  const auto& segs = device.timeline().segments();
  ASSERT_EQ(segs.size(), 1u);
  // After reset the clock restarts at zero and numbering restarts with the
  // empty ledger.
  EXPECT_EQ(segs[0].sequence, 0u);
  EXPECT_DOUBLE_EQ(segs[0].start, 0.0);
}

TEST(Device, CyclesToSecondsUsesClock) {
  DeviceSpec spec;
  spec.clock_ghz = 2.0;
  EXPECT_DOUBLE_EQ(spec.cycles_to_seconds(2e9), 1.0);
}

}  // namespace
}  // namespace eim::gpusim
