#include "eim/support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eim/support/metrics.hpp"

namespace eim::support {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 50) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForWorksWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for(1, 101, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, LargeGrainStillCoversAll) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++count; }, 1000);
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> x{0};
  ThreadPool::global().parallel_for(0, 8, [&](std::size_t) { ++x; });
  EXPECT_EQ(x.load(), 8);
}

TEST(ThreadPool, AdaptiveGrainCoversLargeRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100'000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; },
                    /*grain=*/0);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerParallelForRunsOnCallerInOrder) {
  // The serial fast path: with one worker, parallel_for runs entirely on
  // the calling thread in ascending index order — the property that keeps
  // single-core modeled output bit-reproducible (no scheduler-dependent
  // interleaving of racy-claim protocols).
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(0, 200, [&](std::size_t i) {
    ASSERT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronization needed: single thread
  });
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SerialFastPathStillPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, WorkerSlotsAreDistinctWithinOneCall) {
  // Per-thread scratch (EimSampler, run_wave) is indexed by worker_slot(),
  // so the threads of one call must hold distinct slots in [0, size()].
  // Every iteration waits until all size() + 1 have started, which forces
  // the caller and each worker to hold exactly one iteration at once.
  ThreadPool pool(4);
  ThreadPool other(2);
  const std::size_t n = pool.size() + 1;
  std::atomic<std::size_t> arrived{0};
  std::vector<std::size_t> slots(n);
  std::vector<std::size_t> other_slots(n);
  std::vector<std::thread::id> threads(n);
  pool.parallel_for(
      0, n,
      [&](std::size_t i) {
        slots[i] = pool.worker_slot();
        other_slots[i] = other.worker_slot();
        threads[i] = std::this_thread::get_id();
        arrived.fetch_add(1);
        while (arrived.load() < n) std::this_thread::yield();
      },
      /*grain=*/1);

  std::vector<std::size_t> sorted = slots;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(sorted[i], i) << "slots must be exactly 0..size()";
    EXPECT_EQ(other_slots[i], 0u) << "a worker of one pool is no worker of another";
    for (std::size_t j = i + 1; j < n; ++j) EXPECT_NE(threads[i], threads[j]);
  }

  EXPECT_EQ(pool.worker_slot(), 0u);
  std::size_t outside = 1;
  std::thread([&] { outside = pool.worker_slot(); }).join();
  EXPECT_EQ(outside, 0u);
}

TEST(ThreadPool, DispatchTimerRecordsOnlyFannedOutCalls) {
  ThreadPool pool(4);
  metrics::Histogram timer;
  pool.attach_dispatch_timer(&timer);
  std::atomic<int> count{0};
  const auto body = [&](std::size_t) { ++count; };
  pool.parallel_for(0, 64, body, /*grain=*/1);     // fans out
  pool.parallel_for(0, 64, body, /*grain=*/1000);  // one chunk: serial path
  pool.parallel_for(0, 1, body);                   // one item: serial path
  pool.parallel_for(0, 1000, body);                // adaptive grain, fans out
  EXPECT_EQ(timer.count(), 2u);

  ThreadPool single(1);
  single.attach_dispatch_timer(&timer);
  single.parallel_for(0, 64, body, /*grain=*/1);   // one worker: serial path
  EXPECT_EQ(timer.count(), 2u);

  pool.attach_dispatch_timer(nullptr);
  pool.parallel_for(0, 64, body, /*grain=*/1);
  EXPECT_EQ(timer.count(), 2u);
  EXPECT_EQ(count.load(), 64 + 64 + 1 + 1000 + 64 + 64);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirOwnRange) {
  // Outside threads share one pool's queue: a worker must drain the job its
  // entry points at and no other, and no call may return while a queued
  // entry still points at its frame.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kCalls = 100;
  constexpr std::size_t kItems = 257;
  std::vector<std::size_t> miscounted(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t call = 0; call < kCalls; ++call) {
        std::vector<std::atomic<int>> hits(kItems);
        pool.parallel_for(
            0, kItems, [&](std::size_t i) { hits[i].fetch_add(1); },
            /*grain=*/1 + (call + c) % 8);
        for (const auto& h : hits) {
          if (h.load() != 1) ++miscounted[c];
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(miscounted[c], 0u) << "caller " << c;
  }
}

TEST(ThreadPool, ConcurrentCallersKeepTheirOwnExceptions) {
  // One caller's body always throws while another's never does: the error
  // is rethrown to its own caller on every call and never to the other.
  ThreadPool pool(4);
  constexpr int kCalls = 100;
  int rethrown = 0;
  int leaked = 0;
  int short_sums = 0;
  std::thread failing([&] {
    for (int call = 0; call < kCalls; ++call) {
      try {
        pool.parallel_for(
            0, 64,
            [](std::size_t i) {
              if (i == 13) throw std::runtime_error("boom");
            },
            /*grain=*/1);
      } catch (const std::runtime_error&) {
        ++rethrown;
      }
    }
  });
  std::thread clean([&] {
    for (int call = 0; call < kCalls; ++call) {
      std::atomic<std::size_t> sum{0};
      try {
        pool.parallel_for(0, 64, [&](std::size_t i) { sum.fetch_add(i); }, /*grain=*/1);
      } catch (...) {
        ++leaked;
      }
      if (sum.load() != 64 * 63 / 2) ++short_sums;
    }
  });
  failing.join();
  clean.join();
  EXPECT_EQ(rethrown, kCalls);
  EXPECT_EQ(leaked, 0);
  EXPECT_EQ(short_sums, 0);
}

}  // namespace
}  // namespace eim::support
