// Device global-memory accounting.
//
// Every modeled allocation is a pure charge against the device's
// global-memory budget; exceeding it throws DeviceOutOfMemoryError — this is
// the mechanism behind the paper's OOM cells in Tables 2-5 and Fig. 8 (gIM
// over-allocates, eIM's pooled queues don't). A charge has no host payload:
// the simulator executes on the CPU, and each layer keeps whatever host data
// it actually reads in its own containers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "eim/gpusim/fault_plan.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::gpusim {

class DeviceMemoryPool {
 public:
  explicit DeviceMemoryPool(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Reserve `bytes`; throws DeviceOutOfMemoryError on exhaustion (or when
  /// the attached fault plan scripts an OOM at this allocation ordinal /
  /// byte size) and DeviceLostError once the owning device has died.
  void allocate(std::uint64_t bytes) {
    if (lost_.load(std::memory_order_relaxed)) {
      throw support::DeviceLostError("allocation on lost device");
    }
    // Every *attempt* consumes one ordinal, so a plan's alloc faults stay
    // keyed to the same request whether or not earlier requests succeeded.
    const std::uint64_t ordinal = alloc_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (fault_plan_ != nullptr &&
        ((fault_plan_->alloc_oom_bytes_threshold != 0 &&
          bytes >= fault_plan_->alloc_oom_bytes_threshold) ||
         FaultPlan::hits(fault_plan_->alloc_oom_ordinals, ordinal))) {
      injected_ooms_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t held = allocated_.load(std::memory_order_relaxed);
      throw support::DeviceOutOfMemoryError(bytes, capacity_ - held);
    }
    std::uint64_t current = allocated_.load(std::memory_order_relaxed);
    for (;;) {
      if (current + bytes > capacity_) {
        throw support::DeviceOutOfMemoryError(bytes, capacity_ - current);
      }
      if (allocated_.compare_exchange_weak(current, current + bytes,
                                           std::memory_order_relaxed)) {
        break;
      }
    }
    // Track the high-water mark (racy max-update loop).
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    const std::uint64_t now = current + bytes;
    while (peak < now && !peak_.compare_exchange_weak(peak, now)) {
    }
    alloc_events_.fetch_add(1, std::memory_order_relaxed);
    if (hwm_gauge_ != nullptr) hwm_gauge_->max_update(now);
    if (alloc_counter_ != nullptr) alloc_counter_->add();
  }

  void deallocate(std::uint64_t bytes) noexcept {
    allocated_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t allocated_bytes() const noexcept {
    return allocated_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak_bytes() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t allocation_count() const noexcept {
    return alloc_events_.load(std::memory_order_relaxed);
  }

  void reset_peak() noexcept { peak_.store(allocated_.load()); }

  /// Mirror the high-water mark and allocation events into metrics
  /// instruments (either may be null; pass nulls to detach). The
  /// instruments are not owned — detach before they are destroyed. Attach
  /// from the driving thread before kernels launch; the pointers themselves
  /// are not synchronized.
  void attach_metrics(support::metrics::Gauge* high_water,
                      support::metrics::Counter* allocations) noexcept {
    hwm_gauge_ = high_water;
    alloc_counter_ = allocations;
    if (hwm_gauge_ != nullptr) hwm_gauge_->max_update(peak_bytes());
  }

  /// Attach the owning device's fault plan (not owned; nullptr detaches).
  /// Like attach_metrics, attach from the driving thread before kernels run.
  void attach_fault_plan(const FaultPlan* plan) noexcept { fault_plan_ = plan; }

  /// Permanent device loss: every further allocation throws DeviceLostError.
  /// Deallocation stays permitted so RAII teardown of host-side mirrors
  /// keeps the accounting balanced.
  void set_lost() noexcept { lost_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool lost() const noexcept {
    return lost_.load(std::memory_order_relaxed);
  }

  /// Allocation attempts (the fault-plan ordinal counter; includes faulted
  /// requests, unlike allocation_count()).
  [[nodiscard]] std::uint64_t allocation_attempts() const noexcept {
    return alloc_attempts_.load(std::memory_order_relaxed);
  }
  /// OOMs injected by the attached fault plan (not genuine exhaustion).
  [[nodiscard]] std::uint64_t injected_oom_count() const noexcept {
    return injected_ooms_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t capacity_;
  std::atomic<std::uint64_t> allocated_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> alloc_events_{0};
  std::atomic<std::uint64_t> alloc_attempts_{0};
  std::atomic<std::uint64_t> injected_ooms_{0};
  std::atomic<bool> lost_{false};
  support::metrics::Gauge* hwm_gauge_ = nullptr;
  support::metrics::Counter* alloc_counter_ = nullptr;
  const FaultPlan* fault_plan_ = nullptr;
};

/// RAII device allocation of `T[count]`: a charge against the pool, refunded
/// on destruction, with no host payload behind it. Move-only.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  DeviceBuffer(DeviceMemoryPool& pool, std::size_t count) : pool_(&pool), count_(count) {
    pool.allocate(bytes());
  }

  DeviceBuffer(DeviceBuffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        count_(std::exchange(other.count_, 0)) {}
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = std::exchange(other.pool_, nullptr);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  ~DeviceBuffer() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return static_cast<std::uint64_t>(count_) * sizeof(T);
  }

 private:
  void release() noexcept {
    if (pool_ != nullptr) {
      pool_->deallocate(bytes());
      pool_ = nullptr;
    }
    count_ = 0;
  }

  DeviceMemoryPool* pool_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace eim::gpusim
