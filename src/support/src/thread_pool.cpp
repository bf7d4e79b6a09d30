#include "eim/support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/profiler.hpp"

namespace eim::support {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(MoveOnlyTask task) {
  EIM_CHECK_MSG(static_cast<bool>(task), "null task submitted to ThreadPool");
  std::promise<void> promise;
  auto future = promise.get_future();
  MoveOnlyTask wrapped([task = std::move(task), promise = std::move(promise)]() mutable {
    try {
      task();
      promise.set_value();
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  });
  {
    std::lock_guard lock(mutex_);
    EIM_CHECK_MSG(!stopping_, "submit after ThreadPool shutdown");
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::enqueue_bulk(std::size_t count,
                              const std::function<MoveOnlyTask()>& make) {
  {
    std::lock_guard lock(mutex_);
    EIM_CHECK_MSG(!stopping_, "enqueue after ThreadPool shutdown");
    for (std::size_t i = 0; i < count; ++i) queue_.push_back(make());
  }
  if (count == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

namespace {

/// Per-call coordination for parallel_for; lives on the caller's stack. The
/// calling thread waits (on the pool's done_cv_) until `remaining` helpers
/// have fully finished, so helpers never touch a dead frame.
struct ParallelForState {
  std::atomic<std::size_t> cursor;
  std::size_t end = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;

  std::atomic<bool> failed{false};
  std::exception_ptr error;     ///< guarded by error_mutex
  std::mutex error_mutex;

  std::size_t remaining = 0;    ///< live helpers; guarded by pool done_mutex_
};

void drain(ParallelForState& state) {
  for (;;) {
    const std::size_t chunk_begin =
        state.cursor.fetch_add(state.grain, std::memory_order_relaxed);
    if (chunk_begin >= state.end) return;
    const std::size_t chunk_end = std::min(state.end, chunk_begin + state.grain);
    for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
      if (state.failed.load(std::memory_order_relaxed)) return;
      try {
        (*state.fn)(i);
      } catch (...) {
        const std::lock_guard lock(state.error_mutex);
        if (!state.failed.exchange(true)) state.error = std::current_exception();
        return;
      }
    }
  }
}

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t items = end - begin;
  if (grain == 0) {
    // Adaptive: a few chunks per worker keeps dynamic balancing against
    // stragglers while large ranges pay O(workers) cursor bumps, not
    // O(items).
    grain = std::max<std::size_t>(1, items / (4 * workers_.size() + 1));
  }

  // Serial fast path: a range that fits one chunk, or a pool with a single
  // worker, never touches the queue, the cursor, or the wake machinery.
  // Handing chunks to a lone worker while the caller also drains buys no
  // parallelism, only a thread handoff per call.
  const std::size_t chunks = div_ceil(items, grain);
  if (chunks <= 1 || workers_.size() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  ParallelForState state;
  state.cursor.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.grain = grain;
  state.fn = &fn;

  // The calling thread participates too, so a 1-thread pool still makes
  // progress even while all workers are busy elsewhere.
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  {
    const std::lock_guard lock(done_mutex_);
    state.remaining = helpers;
  }
  // The dispatch timer covers only the fan-out (task construction + queue
  // handoff); the drained body work belongs to whatever scope the caller is
  // already timing.
  profiler::WallTimer* dispatch_timer =
      dispatch_timer_.load(std::memory_order_relaxed);
  const auto dispatch_start = dispatch_timer != nullptr
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  enqueue_bulk(helpers, [this, &state]() -> MoveOnlyTask {
    return MoveOnlyTask([this, &state] {
      drain(state);
      // Last touch of `state`: decrement under the pool-lifetime mutex, so
      // once the caller observes remaining == 0 the frame is safe to die;
      // the trailing notify only uses pool members.
      {
        const std::lock_guard lock(done_mutex_);
        --state.remaining;
      }
      done_cv_.notify_all();
    });
  });
  if (dispatch_timer != nullptr) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - dispatch_start)
                        .count();
    dispatch_timer->record_ns(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
  }
  drain(state);
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&state] { return state.remaining == 0; });
  }

  if (state.failed.load()) std::rethrow_exception(state.error);
}

std::size_t ThreadPool::worker_slot() const noexcept {
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].get_id() == self) return i + 1;
  }
  return 0;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    MoveOnlyTask task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // submit() wraps exceptions into the promise; parallel_for
             // helpers capture them into the call state
  }
}

}  // namespace eim::support
