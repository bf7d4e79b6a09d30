#include "eim/gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "eim/gpusim/device.hpp"

namespace eim::gpusim {
namespace {

TEST(DeviceMemoryPool, TracksAllocations) {
  DeviceMemoryPool pool(1024);
  pool.allocate(100);
  pool.allocate(200);
  EXPECT_EQ(pool.allocated_bytes(), 300u);
  EXPECT_EQ(pool.peak_bytes(), 300u);
  pool.deallocate(100);
  EXPECT_EQ(pool.allocated_bytes(), 200u);
  EXPECT_EQ(pool.peak_bytes(), 300u);  // peak survives frees
}

TEST(DeviceMemoryPool, ThrowsOnExhaustion) {
  DeviceMemoryPool pool(1000);
  pool.allocate(900);
  try {
    pool.allocate(200);
    FAIL() << "expected DeviceOutOfMemoryError";
  } catch (const support::DeviceOutOfMemoryError& e) {
    EXPECT_EQ(e.requested_bytes(), 200u);
    EXPECT_EQ(e.available_bytes(), 100u);
  }
  // Failed allocation must not leak accounting.
  EXPECT_EQ(pool.allocated_bytes(), 900u);
}

TEST(DeviceMemoryPool, ExactFitSucceeds) {
  DeviceMemoryPool pool(256);
  EXPECT_NO_THROW(pool.allocate(256));
  EXPECT_THROW(pool.allocate(1), support::DeviceOutOfMemoryError);
}

TEST(DeviceMemoryPool, CountsAllocationEvents) {
  DeviceMemoryPool pool(1024);
  pool.allocate(1);
  pool.allocate(1);
  pool.allocate(1);
  EXPECT_EQ(pool.allocation_count(), 3u);
}

TEST(DeviceMemoryPool, ConcurrentAllocationNeverOversubscribes) {
  DeviceMemoryPool pool(10'000);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        try {
          pool.allocate(16);
        } catch (const support::DeviceOutOfMemoryError&) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(pool.allocated_bytes(), 10'000u);
  // 800 requests * 16B = 12800 > 10000, so some must have failed.
  EXPECT_GT(failures.load(), 0);
}

TEST(DeviceBuffer, RaiiReleasesMemory) {
  DeviceMemoryPool pool(4096);
  {
    DeviceBuffer<std::uint64_t> buf(pool, 16);
    EXPECT_EQ(buf.bytes(), 128u);
    EXPECT_EQ(pool.allocated_bytes(), 128u);
  }
  EXPECT_EQ(pool.allocated_bytes(), 0u);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  DeviceMemoryPool pool(4096);
  DeviceBuffer<int> a(pool, 8);
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(b.bytes(), 32u);
  EXPECT_EQ(a.bytes(), 0u);  // the moved-from buffer no longer refunds anything
  EXPECT_EQ(pool.allocated_bytes(), 32u);
  b = DeviceBuffer<int>(pool, 4);  // move-assign frees the old allocation
  EXPECT_EQ(b.bytes(), 16u);
  EXPECT_EQ(pool.allocated_bytes(), 16u);
  EXPECT_EQ(pool.peak_bytes(), 48u);  // both charges were briefly held
  b = DeviceBuffer<int>{};
  EXPECT_EQ(pool.allocated_bytes(), 0u);
}

TEST(DeviceBuffer, ChargeHoldsNoHostMemory) {
  // A modeled allocation far beyond this process's RAM: it must only be
  // charged and refunded, never backed by a host array.
  constexpr std::uint64_t kGiB = std::uint64_t{1} << 30;
  Device device(make_benchmark_device(64 * 1024));  // 64 GiB budget
  {
    const auto buf = device.alloc<std::uint8_t>(48 * kGiB);
    EXPECT_EQ(buf.bytes(), 48 * kGiB);
    EXPECT_EQ(device.memory().allocated_bytes(), 48 * kGiB);
  }
  EXPECT_EQ(device.memory().allocated_bytes(), 0u);
  EXPECT_EQ(device.memory().peak_bytes(), 48 * kGiB);
}

TEST(DeviceBuffer, AllocThroughDeviceHelper) {
  Device device(make_benchmark_device(1));  // 1 MB budget
  auto buf = device.alloc<std::uint32_t>(1000);
  EXPECT_EQ(device.memory().allocated_bytes(), 4000u);
  EXPECT_THROW(device.alloc<std::uint8_t>(2u << 20), support::DeviceOutOfMemoryError);
}

}  // namespace
}  // namespace eim::gpusim
