#include "eim/eim/rrr_collection.hpp"

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "eim/eim/tiered_store.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::VertexId;

gpusim::Device make_device() { return gpusim::Device(gpusim::make_benchmark_device(64)); }

/// The serial one-set commit: admit `sorted_set` at slot num_sets() and
/// publish it. False when it does not fit (nothing is written).
bool commit(DeviceRrrCollection& col, std::span<const VertexId> sorted_set) {
  const auto len = static_cast<std::uint32_t>(sorted_set.size());
  if (col.admit(std::span<const std::uint32_t>(&len, 1)) == 0) return false;
  col.publish(col.num_sets() - 1, sorted_set);
  return true;
}

TEST(DeviceRrrCollection, CommitAndDecode) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 100, /*log_encode=*/true);
  col.reserve(2, 16);
  EXPECT_TRUE(commit(col, std::vector<VertexId>{3, 17, 42}));
  EXPECT_TRUE(commit(col, std::vector<VertexId>{42}));
  EXPECT_EQ(col.num_sets(), 2u);
  EXPECT_EQ(col.total_elements(), 4u);
  EXPECT_EQ(col.set_length(0), 3u);
  EXPECT_EQ(col.element(0, 0), 3u);
  EXPECT_EQ(col.element(0, 1), 17u);
  EXPECT_EQ(col.element(0, 2), 42u);
  EXPECT_EQ(col.element(1, 0), 42u);
}

TEST(DeviceRrrCollection, DecodeSetMatchesElementForBothEncodings) {
  for (const bool log_encode : {true, false}) {
    gpusim::Device device = make_device();
    DeviceRrrCollection col(device, 5000, log_encode);
    col.reserve(3, 32);
    ASSERT_TRUE(commit(col, std::vector<VertexId>{5, 17, 4093}));
    ASSERT_TRUE(commit(col, std::vector<VertexId>{}));
    ASSERT_TRUE(commit(col, std::vector<VertexId>{0, 1, 2, 3, 4999}));
    for (std::uint64_t i = 0; i < 3; ++i) {
      std::vector<VertexId> out(col.set_length(i));
      col.decode_set(i, out);
      for (std::uint32_t j = 0; j < col.set_length(i); ++j) {
        EXPECT_EQ(out[j], col.element(i, j))
            << "log_encode=" << log_encode << " set " << i << " j " << j;
      }
    }
  }
}

TEST(DeviceRrrCollection, CommitFailsWhenFull) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 50, true);
  col.reserve(2, 3);
  EXPECT_TRUE(commit(col, std::vector<VertexId>{1, 2}));
  EXPECT_FALSE(commit(col, std::vector<VertexId>{3, 4}));
  // A rejected set is not admitted: the cursor stays at the committed prefix.
  EXPECT_EQ(col.num_sets(), 1u);
  EXPECT_EQ(col.total_elements(), 2u);
  // Growth fixes it.
  col.reserve(2, 8);
  EXPECT_TRUE(commit(col, std::vector<VertexId>{3, 4}));
  EXPECT_EQ(col.element(1, 0), 3u);
}

TEST(DeviceRrrCollection, GrowthPreservesContents) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 1000, true);
  col.reserve(4, 4);
  (void)commit(col, std::vector<VertexId>{7, 999});
  col.reserve(4, 1000);
  (void)commit(col, std::vector<VertexId>{0, 1, 2});
  EXPECT_EQ(col.element(0, 0), 7u);
  EXPECT_EQ(col.element(0, 1), 999u);
  EXPECT_EQ(col.element(1, 2), 2u);
}

TEST(DeviceRrrCollection, EmptySetsCommitCleanly) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 10, true);
  col.reserve(1, 4);
  EXPECT_TRUE(commit(col, {}));
  EXPECT_EQ(col.set_length(0), 0u);
  EXPECT_EQ(col.total_elements(), 0u);
}

TEST(DeviceRrrCollection, LogEncodingShrinksStorage) {
  gpusim::Device device = make_device();
  DeviceRrrCollection packed(device, 1 << 14, true);
  DeviceRrrCollection raw(device, 1 << 14, false);
  packed.reserve(100, 1000);
  raw.reserve(100, 1000);
  std::vector<VertexId> set;
  for (VertexId v = 0; v < 10; ++v) set.push_back(v * 100);
  for (std::uint64_t i = 0; i < 100; ++i) {
    (void)commit(packed, set);
    (void)commit(raw, set);
  }
  // 14-bit ids packed vs 32-bit raw: R shrinks by >half; O and C match.
  EXPECT_LT(packed.stored_bytes(), raw.stored_bytes());
  EXPECT_EQ(packed.raw_equivalent_bytes(), raw.raw_equivalent_bytes());
  EXPECT_EQ(raw.stored_bytes(), raw.raw_equivalent_bytes());
  // Decode parity between the two layouts.
  for (std::uint32_t j = 0; j < 10; ++j) {
    EXPECT_EQ(packed.element(5, j), raw.element(5, j));
  }
}

TEST(DeviceRrrCollection, ChargesDeviceMemory) {
  gpusim::Device device = make_device();
  const std::uint64_t before = device.memory().allocated_bytes();
  {
    DeviceRrrCollection col(device, 1000, true);
    col.reserve(100, 10'000);
    EXPECT_GT(device.memory().allocated_bytes(), before);
  }
  EXPECT_EQ(device.memory().allocated_bytes(), before);  // RAII refund
}

TEST(DeviceRrrCollection, OutOfMemoryPropagates) {
  gpusim::Device device(gpusim::make_benchmark_device(1));  // 1 MB budget
  DeviceRrrCollection col(device, 100, false);
  EXPECT_THROW(col.reserve(10, 10'000'000), support::DeviceOutOfMemoryError);
}

TEST(DeviceRrrCollection, ConcurrentCommitsAreSafe) {
  // One admit over the whole run, then the admitted slices publish from
  // four threads at once — the samplers' publish step.
  gpusim::Device device = make_device();
  constexpr std::uint64_t kSets = 2000;
  DeviceRrrCollection col(device, 1 << 12, true);
  col.reserve(kSets, kSets * 3);

  const auto set_for = [](std::uint64_t i) {
    const auto v = static_cast<VertexId>(i & 0xFFF);
    std::vector<VertexId> set{v};
    if (v + 1 < (1 << 12)) set.push_back(v + 1);
    return set;
  };
  std::vector<std::uint32_t> lengths(kSets);
  for (std::uint64_t i = 0; i < kSets; ++i) {
    lengths[i] = static_cast<std::uint32_t>(set_for(i).size());
  }
  ASSERT_EQ(col.admit(lengths), kSets);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&col, &set_for, t] {
      for (std::uint64_t i = static_cast<std::uint64_t>(t); i < kSets; i += 4) {
        col.publish(i, set_for(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every set decodes to what its writer stored.
  for (std::uint64_t i = 0; i < kSets; ++i) {
    const auto v = static_cast<VertexId>(i & 0xFFF);
    EXPECT_EQ(col.element(i, 0), v);
  }
}

TEST(DeviceRrrCollection, AdmitsLongestPrefixThatFits) {
  gpusim::Device device = make_device();
  support::metrics::MetricsRegistry registry;
  DeviceRrrCollection col(device, 100, true);
  col.attach_metrics(&registry);
  col.reserve(8, 10);
  const std::vector<std::uint32_t> lengths{3, 4, 5, 1};
  EXPECT_EQ(col.admit(lengths), 2u);  // 3 + 4 fit; 5 would reach 12 > 10
  EXPECT_EQ(col.num_sets(), 2u);
  EXPECT_EQ(col.total_elements(), 7u);
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), 2u);
}

TEST(DeviceRrrCollection, AtMostMaxRejectsCount) {
  // A sampling wave passes its block count: only that many rejected slots
  // ever started, so only they count, in this call and in later ones.
  gpusim::Device device = make_device();
  support::metrics::MetricsRegistry registry;
  DeviceRrrCollection col(device, 100, true);
  col.attach_metrics(&registry);
  col.reserve(8, 3);
  EXPECT_EQ(col.admit(std::vector<std::uint32_t>{2, 2, 1, 1, 1}, 2), 1u);
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), 2u);
  EXPECT_EQ(col.admit(std::vector<std::uint32_t>{1}, 2), 0u);
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), 3u);
}

TEST(DeviceRrrCollection, SmallSetAfterRejectedSetIsRejected) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 100, false);
  col.reserve(8, 6);
  // Slot 1 (3 members) does not fit behind slot 0; slot 2 (1 member) would,
  // but a later slot never fills the space in front of a rejected one.
  EXPECT_EQ(col.admit(std::vector<std::uint32_t>{4, 3, 1}), 1u);
  EXPECT_FALSE(commit(col, std::vector<VertexId>{9}));
  EXPECT_EQ(col.total_elements(), 4u);
  // The next reserve reopens admission at the first rejected slot.
  col.reserve(8, 6);
  EXPECT_TRUE(commit(col, std::vector<VertexId>{9}));
  EXPECT_EQ(col.num_sets(), 2u);
  EXPECT_EQ(col.element(1, 0), 9u);
}

TEST(DeviceRrrCollection, OffsetsAreExclusiveScanOfLengths) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 100, true);
  col.reserve(8, 64);
  const std::vector<std::uint32_t> lengths{3, 0, 5, 2};
  ASSERT_EQ(col.admit(lengths), lengths.size());
  EXPECT_EQ(col.total_elements(), 10u);
  // A second run continues the scan.
  ASSERT_EQ(col.admit(std::vector<std::uint32_t>{7}), 1u);
  EXPECT_EQ(col.total_elements(), 17u);
  // Slices at the exclusive-scan offsets tile R exactly: each set decodes to
  // what was published into it, with no neighbour's members bleeding in.
  const std::vector<std::vector<VertexId>> sets{
      {1, 2, 3}, {}, {10, 11, 12, 13, 14}, {20, 21}, {30, 31, 32, 33, 34, 35, 36}};
  for (std::uint64_t i = 0; i < sets.size(); ++i) col.publish(i, sets[i]);
  for (std::uint64_t i = 0; i < sets.size(); ++i) {
    std::vector<VertexId> out(col.set_length(i));
    col.decode_set(i, out);
    EXPECT_EQ(out, sets[i]) << "set " << i;
  }
}

TEST(DeviceRrrCollection, SpilledSetsAreTheCommittedPrefix) {
  gpusim::Device device = make_device();
  TieredRrrStore store(device, TieredStoreOptions{});
  DeviceRrrCollection col(device, 1000, true);
  col.attach_spill(&store, 0);
  const auto set_for = [](std::uint64_t i) {
    return std::vector<VertexId>{static_cast<VertexId>(i), static_cast<VertexId>(i + 500)};
  };
  col.reserve(6, 12);
  for (std::uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(commit(col, set_for(i)));
  col.spill_committed();
  for (std::uint64_t i = 3; i < 5; ++i) {
    col.reserve(6, col.total_elements() + 2);
    ASSERT_TRUE(commit(col, set_for(i)));
  }
  EXPECT_TRUE(col.has_spilled());
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(col.is_spilled(i), i < 3) << "set " << i;
    std::vector<VertexId> out(col.set_length(i));
    col.decode_set(i, out);
    EXPECT_EQ(out, set_for(i)) << "set " << i;
  }
  col.spill_committed();
  EXPECT_EQ(store.spilled_sets(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(col.is_spilled(i));
}

TEST(DeviceRrrCollection, MetricsCountRejectsAndRegrows) {
  gpusim::Device device = make_device();
  support::metrics::MetricsRegistry registry;
  DeviceRrrCollection col(device, 100, true);
  col.attach_metrics(&registry);

  col.reserve(4, 4);  // first O + R growth
  const std::vector<VertexId> big{1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(commit(col, big));
  EXPECT_FALSE(commit(col, big));
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), 2u);

  col.reserve(4, 64);  // R regrows, O stays
  EXPECT_TRUE(commit(col, big));
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), 2u);
  EXPECT_EQ(registry.counter("rrr.regrow_r").value(), 2u);
  EXPECT_EQ(registry.counter("rrr.regrow_o").value(), 1u);
}

TEST(DeviceRrrCollection, StoredBytesChargeReservedOffsets) {
  // stored_bytes must report the O footprint actually charged to the pool —
  // reserve() sizes starts_, and num_sets() lags it mid-run.
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 100, false);
  col.reserve(10, 32);
  (void)commit(col, std::vector<VertexId>{1, 2});

  const std::uint64_t o_bytes = 10 * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  const std::uint64_t c_bytes = 100 * sizeof(std::uint32_t);
  EXPECT_EQ(col.stored_bytes(), 2 * sizeof(VertexId) + o_bytes + c_bytes);
  EXPECT_EQ(col.stored_bytes(), col.raw_equivalent_bytes());
}

}  // namespace
}  // namespace eim::eim_impl
