#include "eim/support/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::support {

namespace {

/// The pool and slot of the worker running on this thread, set once when
/// the worker starts; every other thread keeps the null default.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t slot = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

/// The calling thread waits (on the pool's done_cv_) until `remaining`
/// helpers have fully finished, so helpers never touch a dead frame.
struct ThreadPool::Job {
  std::atomic<std::size_t> cursor;
  std::size_t end = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;

  std::atomic<bool> failed{false};
  std::exception_ptr error;     ///< guarded by error_mutex
  std::mutex error_mutex;

  std::size_t remaining = 0;    ///< live helpers; guarded by pool done_mutex_

  void drain() {
    for (;;) {
      const std::size_t chunk_begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (chunk_begin >= end) return;
      const std::size_t chunk_end = std::min(end, chunk_begin + grain);
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
        if (failed.load(std::memory_order_relaxed)) return;
        try {
          (*fn)(i);
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (!failed.exchange(true)) error = std::current_exception();
          return;
        }
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
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

  Job job;
  job.cursor.store(begin, std::memory_order_relaxed);
  job.end = end;
  job.grain = grain;
  job.fn = &fn;

  // The calling thread participates too, so the call makes progress even
  // while every worker is busy elsewhere (or is the caller itself).
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  {
    const std::lock_guard lock(done_mutex_);
    job.remaining = helpers;
  }
  {
    // The dispatch timer covers only the fan-out (queue handoff and wake);
    // the drained body work belongs to whatever scope the caller is
    // already timing.
    const metrics::ScopedWall dispatch(
        dispatch_timer_.load(std::memory_order_relaxed));
    {
      const std::lock_guard lock(mutex_);
      EIM_CHECK_MSG(!stopping_, "parallel_for after ThreadPool shutdown");
      queue_.insert(queue_.end(), helpers, &job);
    }
    if (helpers == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }
  job.drain();
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&job] { return job.remaining == 0; });
  }

  if (job.failed.load()) std::rethrow_exception(job.error);
}

std::size_t ThreadPool::worker_slot() const noexcept {
  return tls_worker.pool == this ? tls_worker.slot : 0;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop(std::size_t slot) {
  tls_worker = {this, slot};
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = queue_.front();
      queue_.pop_front();
    }
    job->drain();  // captures exceptions into the job
    // Last touch of the job: decrement under the pool-lifetime mutex, so
    // once the caller observes remaining == 0 the frame is safe to die; the
    // trailing notify only uses pool members.
    {
      const std::lock_guard lock(done_mutex_);
      --job->remaining;
    }
    done_cv_.notify_all();
  }
}

}  // namespace eim::support
