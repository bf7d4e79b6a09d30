#include "eim/gpusim/context.hpp"

#include <gtest/gtest.h>

namespace eim::gpusim {
namespace {

// Returns a reference to a long-lived spec: contexts keep a pointer to the
// spec they are built with, so a temporary here would dangle.
const DeviceSpec& spec() {
  static const DeviceSpec s{};
  return s;
}

TEST(BlockContext, ChargesFollowCostTable) {
  const DeviceSpec s = spec();
  BlockContext ctx(0, s);
  ctx.charge_global(2);
  ctx.charge_shared(3);
  ctx.charge_alu(5);
  EXPECT_EQ(ctx.cycles(), 2u * s.costs.global_latency + 3u * s.costs.shared_latency +
                              5u * s.costs.alu_op);
}

TEST(BlockContext, AtomicContentionSerialises) {
  const DeviceSpec s = spec();
  BlockContext one(0, s);
  BlockContext many(0, s);
  one.charge_atomic_global(1);
  many.charge_atomic_global(32);
  EXPECT_EQ(many.cycles() - one.cycles(), 31u * s.costs.atomic_conflict);
}

TEST(BlockContext, SharedAtomicContentionSerialises) {
  const DeviceSpec s = spec();
  BlockContext one(0, s);
  BlockContext many(0, s);
  one.charge_atomic_shared(1);
  many.charge_atomic_shared(32);
  EXPECT_EQ(one.cycles(), s.costs.atomic_shared);
  EXPECT_EQ(many.cycles() - one.cycles(), 31u * s.costs.atomic_conflict);
}

TEST(BlockContext, WarpChunksCountWholeTransactions) {
  // One coalesced transaction covers a warp's 32 consecutive items; a
  // partial tail still costs a whole transaction.
  BlockContext ctx(0, spec());
  EXPECT_EQ(ctx.warp_chunks(0), 0u);
  EXPECT_EQ(ctx.warp_chunks(1), 1u);
  EXPECT_EQ(ctx.warp_chunks(32), 1u);
  EXPECT_EQ(ctx.warp_chunks(33), 2u);
  EXPECT_EQ(ctx.warp_chunks(64), 2u);
}

TEST(BlockContext, CarriesBlockIdAndWarpSize) {
  const DeviceSpec s = spec();
  BlockContext ctx(7, s);
  EXPECT_EQ(ctx.block_id(), 7u);
  EXPECT_EQ(ctx.warp_size(), s.warp_size);
  EXPECT_EQ(&ctx.spec(), &s);
  EXPECT_EQ(ctx.cycles(), 0u);
}

TEST(BlockContext, MallocCharges) {
  const DeviceSpec s = spec();
  BlockContext ctx(0, s);
  ctx.charge_device_malloc();
  ctx.charge_device_malloc();
  EXPECT_EQ(ctx.cycles(), 2u * s.costs.device_malloc);
}

TEST(BlockContext, InclusiveScanChargesLogSteps) {
  const DeviceSpec s = spec();
  BlockContext ctx(0, s);
  ctx.charge_warp_scan();
  // log2(32) = 5 shuffle + 5 add steps.
  EXPECT_EQ(ctx.cycles(), 5u * s.costs.shuffle_op + 5u * s.costs.alu_op);
}

TEST(BlockContext, BallotChargesOneInstruction) {
  const DeviceSpec s = spec();
  BlockContext ctx(0, s);
  ctx.charge_warp_ballot();
  EXPECT_EQ(ctx.cycles(), s.costs.alu_op);
}

}  // namespace
}  // namespace eim::gpusim
