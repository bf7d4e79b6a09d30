// Minimal fixed-size thread pool used by the GPU simulator to execute
// "blocks" concurrently on the host. Its one operation is parallel_for.
//
// Design notes (per the C++ Core Guidelines concurrency rules): the pool owns
// its threads (RAII, joined in the destructor), and parallel_for uses an
// atomic cursor so chunking is dynamic — important because RRR-set
// traversals have wildly unequal lengths (the very load-imbalance problem
// the paper discusses in §3.2).
//
// Hot-path contract: parallel_for keeps its entire coordination state (the
// job: cursor, error slot, completion count) on the caller's stack, and the
// queue holds plain pointers to it — one call performs no allocation beyond
// at most `helpers` pointer pushes, so the simulated per-kernel-launch
// dispatch cost stays bounded by queue traffic, not by the allocator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eim::support {

namespace metrics {
class Histogram;
}  // namespace metrics

class ThreadPool {
 public:
  /// Spins up `num_threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// The calling thread's slot in [0, size()]: i + 1 on this pool's worker
  /// i, 0 on any other thread (including another pool's workers). The
  /// threads running one parallel_for's iterations hold distinct slots, so
  /// per-slot scratch needs no lock. O(1): one thread_local read.
  [[nodiscard]] std::size_t worker_slot() const noexcept;

  /// Run fn(i) for i in [begin, end) across the pool, blocking until done.
  ///
  /// Work is handed out in `grain`-sized chunks from an atomic cursor, so
  /// stragglers don't serialize the batch; grain 0 picks an adaptive chunk
  /// (several chunks per worker) that amortizes cursor traffic on large
  /// ranges while keeping dynamic balancing. Exceptions from any invocation
  /// are rethrown (first one wins). All coordination state lives on the
  /// caller's stack — no allocation beyond the helper pointer pushes.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t grain = 0);

  /// Process-wide pool sized to hardware concurrency.
  static ThreadPool& global();

  /// Attach (or, with nullptr, detach) a wall timer that records the
  /// *dispatch* portion of each parallel_for — entry through handing the
  /// helper entries to the queue — not the body work, which would
  /// double-count every scope the callback itself is timed under. The
  /// serial fast path records nothing (there is no dispatch). Null by
  /// default: the check is one relaxed load per call.
  void attach_dispatch_timer(metrics::Histogram* timer) noexcept {
    dispatch_timer_.store(timer, std::memory_order_relaxed);
  }

 private:
  /// One parallel_for call's coordination state, on the caller's stack.
  struct Job;

  void worker_loop(std::size_t slot);

  std::vector<std::thread> workers_;
  std::deque<Job*> queue_;  ///< one entry per helper a call fans out to
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Completion signalling for parallel_for: pool-lifetime primitives so the
  // job can die on the caller's stack without racing a helper's final
  // notify (the helper only touches pool members after its last access to
  // the job).
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::atomic<metrics::Histogram*> dispatch_timer_{nullptr};
};

}  // namespace eim::support
