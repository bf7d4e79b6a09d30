#include "eim/eim/rrr_collection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::VertexId;

gpusim::Device make_device() { return gpusim::Device(gpusim::make_benchmark_device(64)); }

TEST(DeviceRrrCollection, CommitAndDecode) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 100, /*log_encode=*/true);
  col.reserve(2, 16);
  EXPECT_TRUE(col.try_commit(0, std::vector<VertexId>{3, 17, 42}));
  EXPECT_TRUE(col.try_commit(1, std::vector<VertexId>{42}));
  col.set_num_sets(2);
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
    ASSERT_TRUE(col.try_commit(0, std::vector<VertexId>{5, 17, 4093}));
    ASSERT_TRUE(col.try_commit(1, std::vector<VertexId>{}));
    ASSERT_TRUE(col.try_commit(2, std::vector<VertexId>{0, 1, 2, 3, 4999}));
    col.set_num_sets(3);
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
  EXPECT_TRUE(col.try_commit(0, std::vector<VertexId>{1, 2}));
  EXPECT_FALSE(col.try_commit(1, std::vector<VertexId>{3, 4}));
  // Rollback: failed commit leaves no trace.
  EXPECT_EQ(col.total_elements(), 2u);
  // Growth fixes it.
  col.reserve(2, 8);
  EXPECT_TRUE(col.try_commit(1, std::vector<VertexId>{3, 4}));
  EXPECT_EQ(col.element(1, 0), 3u);
}

TEST(DeviceRrrCollection, GrowthPreservesContents) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 1000, true);
  col.reserve(4, 4);
  (void)col.try_commit(0, std::vector<VertexId>{7, 999});
  col.reserve(4, 1000);
  (void)col.try_commit(1, std::vector<VertexId>{0, 1, 2});
  EXPECT_EQ(col.element(0, 0), 7u);
  EXPECT_EQ(col.element(0, 1), 999u);
  EXPECT_EQ(col.element(1, 2), 2u);
}

TEST(DeviceRrrCollection, EmptySetsCommitCleanly) {
  gpusim::Device device = make_device();
  DeviceRrrCollection col(device, 10, true);
  col.reserve(1, 4);
  EXPECT_TRUE(col.try_commit(0, {}));
  col.set_num_sets(1);
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
    (void)packed.try_commit(i, set);
    (void)raw.try_commit(i, set);
  }
  packed.set_num_sets(100);
  raw.set_num_sets(100);
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
  gpusim::Device device = make_device();
  constexpr std::uint64_t kSets = 2000;
  DeviceRrrCollection col(device, 1 << 12, true);
  col.reserve(kSets, kSets * 3);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&col, t] {
      for (std::uint64_t i = static_cast<std::uint64_t>(t); i < kSets; i += 4) {
        const auto v = static_cast<VertexId>(i & 0xFFF);
        std::vector<VertexId> set{v};
        if (v + 1 < (1 << 12)) set.push_back(v + 1);
        ASSERT_TRUE(col.try_commit(i, set));
      }
    });
  }
  for (auto& th : threads) th.join();
  col.set_num_sets(kSets);

  // Every set decodes to what its writer stored.
  for (std::uint64_t i = 0; i < kSets; ++i) {
    const auto v = static_cast<VertexId>(i & 0xFFF);
    EXPECT_EQ(col.element(i, 0), v);
  }
}

TEST(DeviceRrrCollection, CursorNeverOvershootsCapacityUnderContention) {
  // Default-suite smoke version of tests/stress/test_commit_stress.cpp: the
  // CAS claim makes the element cursor monotone and bounded by capacity even
  // while most commits are failing at the boundary. (The old
  // fetch_add/fetch_sub rollback violated both observably.)
  gpusim::Device device = make_device();
  constexpr std::uint64_t kCapacity = 64;
  DeviceRrrCollection col(device, 1 << 10, true);
  col.reserve(512, kCapacity);

  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&col, &violations, t] {
      std::uint64_t watermark = 0;
      for (std::uint64_t i = static_cast<std::uint64_t>(t); i < 512; i += 4) {
        std::vector<VertexId> set(i % 8 == 0 ? 2 : kCapacity + 8);
        for (std::size_t j = 0; j < set.size(); ++j) {
          set[j] = static_cast<VertexId>(j);
        }
        (void)col.try_commit(i, set);
        const std::uint64_t seen = col.total_elements();
        if (seen > kCapacity || seen < watermark) violations.fetch_add(1);
        watermark = std::max(watermark, seen);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_LE(col.total_elements(), kCapacity);
}

TEST(DeviceRrrCollection, MetricsCountRejectsAndRegrows) {
  gpusim::Device device = make_device();
  support::metrics::MetricsRegistry registry;
  DeviceRrrCollection col(device, 100, true);
  col.attach_metrics(&registry);

  col.reserve(4, 4);  // first O + R growth
  const std::vector<VertexId> big{1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(col.try_commit(0, big));
  EXPECT_FALSE(col.try_commit(1, big));
  EXPECT_EQ(registry.counter("rrr.commit_rejects").value(), 2u);

  col.reserve(4, 64);  // R regrows, O stays
  EXPECT_TRUE(col.try_commit(0, big));
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
  (void)col.try_commit(0, std::vector<VertexId>{1, 2});
  col.set_num_sets(1);

  const std::uint64_t o_bytes = 10 * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  const std::uint64_t c_bytes = 100 * sizeof(std::uint32_t);
  EXPECT_EQ(col.stored_bytes(), 2 * sizeof(VertexId) + o_bytes + c_bytes);
  EXPECT_EQ(col.stored_bytes(), col.raw_equivalent_bytes());
}

}  // namespace
}  // namespace eim::eim_impl
