// Minimal fixed-size thread pool used by the GPU simulator to execute
// "blocks" concurrently on the host.
//
// Design notes (per the C++ Core Guidelines concurrency rules): the pool owns
// its threads (RAII, joined in the destructor), tasks are type-erased
// move-only callables with small-buffer storage, and parallel_for uses an
// atomic cursor so chunking is dynamic — important because RRR-set
// traversals have wildly unequal lengths (the very load-imbalance problem
// the paper discusses in §3.2).
//
// Hot-path contract: parallel_for keeps its entire coordination state on the
// caller's stack (cursor, error slot, completion count) — one call performs
// zero shared_ptr allocations and at most `helpers` small task pushes, so
// the simulated per-kernel-launch dispatch cost stays bounded by queue
// traffic, not by the allocator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace eim::support {

namespace profiler {
class WallTimer;
}  // namespace profiler

/// Type-erased move-only callable `void()`. Callables up to kInlineBytes
/// with a noexcept move constructor live in the inline buffer; larger or
/// throwing-move ones fall back to a single heap cell. This is what lets
/// the pool run move-only payloads (promises, packaged state) that
/// std::function rejects, without a mandatory allocation per task.
class MoveOnlyTask {
 public:
  static constexpr std::size_t kInlineBytes = 6 * sizeof(void*);

  MoveOnlyTask() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, MoveOnlyTask> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  MoveOnlyTask(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = &inline_vtable<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vtable_ = &heap_vtable<Fn>;
    }
  }

  MoveOnlyTask(MoveOnlyTask&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage_, storage_);
      other.vtable_ = nullptr;
    }
  }

  MoveOnlyTask& operator=(MoveOnlyTask&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(other.storage_, storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  MoveOnlyTask(const MoveOnlyTask&) = delete;
  MoveOnlyTask& operator=(const MoveOnlyTask&) = delete;

  ~MoveOnlyTask() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(storage_); }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    /// Move-construct into `dst` and destroy the source (dst is raw).
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); },
  };

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes]{};
  const VTable* vtable_ = nullptr;
};

class ThreadPool {
 public:
  /// Spins up `num_threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// The calling thread's slot in [0, size()]: i + 1 on this pool's worker
  /// i, 0 on any other thread. The threads running one parallel_for's
  /// iterations hold distinct slots, so per-slot scratch needs no lock.
  [[nodiscard]] std::size_t worker_slot() const noexcept;

  /// Enqueue a task; the returned future reports completion/exception.
  /// Accepts move-only callables (e.g. ones capturing a promise).
  std::future<void> submit(MoveOnlyTask task);

  /// Run fn(i) for i in [begin, end) across the pool, blocking until done.
  ///
  /// Work is handed out in `grain`-sized chunks from an atomic cursor, so
  /// stragglers don't serialize the batch; grain 0 picks an adaptive chunk
  /// (several chunks per worker) that amortizes cursor traffic on large
  /// ranges while keeping dynamic balancing. Exceptions from any invocation
  /// are rethrown (first one wins). All coordination state lives on the
  /// caller's stack — no allocation beyond the helper task pushes.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t grain = 0);

  /// Process-wide pool sized to hardware concurrency.
  static ThreadPool& global();

  /// Attach (or, with nullptr, detach) a wall timer that records the
  /// *dispatch* portion of each parallel_for — entry through handing the
  /// helper tasks to the queue — not the body work, which would double-count
  /// every scope the callback itself is timed under. The serial fast path
  /// records nothing (there is no dispatch). Null by default: the check is
  /// one relaxed load per call.
  void attach_dispatch_timer(profiler::WallTimer* timer) noexcept {
    dispatch_timer_.store(timer, std::memory_order_relaxed);
  }

 private:
  void worker_loop();
  /// Push `count` copies of tasks produced by `make` under one lock.
  void enqueue_bulk(std::size_t count, const std::function<MoveOnlyTask()>& make);

  std::vector<std::thread> workers_;
  std::deque<MoveOnlyTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Completion signalling for parallel_for: pool-lifetime primitives so the
  // per-call state can die on the caller's stack without racing a helper's
  // final notify (the helper only touches pool members after its last
  // access to the call state).
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::atomic<profiler::WallTimer*> dispatch_timer_{nullptr};
};

}  // namespace eim::support
