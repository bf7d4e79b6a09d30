// The simulated device: memory pool + timeline + kernel launch.
//
// launch_blocks models the paper's sampling kernels (one warp per block,
// self-scheduled work). Block bodies run on the host thread pool and meter
// their cycles; the device folds those into modeled kernel time with a
// work-span occupancy model: blocks are greedily packed onto the device's
// resident warp slots and the makespan — the maximum slot load — becomes
// the kernel's cycle count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "eim/gpusim/context.hpp"
#include "eim/gpusim/device_spec.hpp"
#include "eim/gpusim/fault_plan.hpp"
#include "eim/gpusim/memory.hpp"
#include "eim/gpusim/timeline.hpp"

namespace eim::gpusim {

struct KernelStats {
  std::string label;
  std::uint64_t units = 0;            ///< blocks launched
  std::uint64_t makespan_cycles = 0;  ///< modeled parallel completion time
  std::uint64_t work_cycles = 0;      ///< total cycles across all units
  double seconds = 0.0;               ///< launch overhead + makespan
};

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec{});

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] DeviceMemoryPool& memory() noexcept { return memory_; }
  [[nodiscard]] const DeviceMemoryPool& memory() const noexcept { return memory_; }
  [[nodiscard]] DeviceTimeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const DeviceTimeline& timeline() const noexcept { return timeline_; }

  /// Allocate a tracked device buffer (throws DeviceOutOfMemoryError, or
  /// DeviceLostError once the device has died).
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> alloc(std::size_t count) {
    return DeviceBuffer<T>(memory_, count);
  }

  // -- fault injection (docs/RESILIENCE.md) -----------------------------

  /// Install a deterministic fault plan. Replaces any previous plan; the
  /// ordinal counters are NOT reset, so a plan installed mid-life keys
  /// against the device's cumulative launch/transfer/allocation history.
  void set_fault_plan(FaultPlan plan) noexcept {
    fault_plan_ = std::move(plan);
    memory_.attach_fault_plan(fault_plan_.empty() ? nullptr : &fault_plan_);
  }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return fault_plan_; }

  /// True once a permanent device-loss fault fired; every further launch,
  /// transfer, or allocation throws DeviceLostError.
  [[nodiscard]] bool lost() const noexcept { return memory_.lost(); }

  /// Kernel launches attempted so far (the fault-plan launch ordinal).
  [[nodiscard]] std::uint64_t kernel_launch_ordinal() const noexcept {
    return kernel_ordinal_;
  }
  /// Transfers attempted so far (H2D and D2H share the ordinal space).
  [[nodiscard]] std::uint64_t transfer_ordinal() const noexcept {
    return transfer_ordinal_;
  }

  /// Injected-fault tallies (allocation OOMs included, read from the pool).
  [[nodiscard]] FaultStats fault_stats() const noexcept {
    FaultStats stats = fault_stats_;
    stats.alloc_ooms = memory_.injected_oom_count();
    return stats;
  }

  /// Charge deterministic retry backoff to the modeled timeline.
  void charge_backoff(const std::string& label, double seconds) {
    timeline_.add(SegmentKind::Backoff, label, seconds);
  }

  /// Launch `num_blocks` single-warp blocks. Bodies run concurrently on the
  /// host pool; shared state inside the body must use atomics, exactly as
  /// the CUDA original would.
  KernelStats launch_blocks(const std::string& label, std::uint32_t num_blocks,
                            const std::function<void(BlockContext&)>& body);

  /// The same launch for a caller that schedules the blocks' host work
  /// itself: `run` adds everything block b metered into block_cycles[b] —
  /// its bodies, then any in-order step after them — before the makespan
  /// is taken. Launch faults still fire before `run` is called.
  KernelStats launch_metered(const std::string& label, std::uint32_t num_blocks,
                             const std::function<void(std::span<std::uint64_t>)>& run);

  /// Meter a host->device or device->host copy (cuRipples' Achilles heel).
  void transfer_to_device(const std::string& label, std::uint64_t bytes);
  void transfer_to_host(const std::string& label, std::uint64_t bytes);

  /// Meter a host-side cudaMalloc-style allocation event (fixed latency).
  void charge_allocation_event(const std::string& label);

 private:
  /// Consume one launch ordinal and fire any scripted fault: permanent loss
  /// (ordinal- or modeled-time-keyed) throws DeviceLostError, a transient
  /// fault throws DeviceFaultError *before* any block body runs.
  void check_launch_faults(const std::string& label);
  /// Same for transfers; the faulted transfer charges its setup latency.
  void check_transfer_faults(const std::string& label);
  [[noreturn]] void mark_lost(const std::string& label);

  DeviceSpec spec_;
  DeviceMemoryPool memory_;
  DeviceTimeline timeline_;
  FaultPlan fault_plan_;
  FaultStats fault_stats_;
  std::uint64_t kernel_ordinal_ = 0;
  std::uint64_t transfer_ordinal_ = 0;
};

/// Fold one device's injected-fault deltas over a run (`after` - `before`)
/// into the registry's fault.* counters; a null registry records nothing.
inline void record_fault_deltas(support::metrics::MetricsRegistry* registry,
                                const FaultStats& before, const FaultStats& after) {
  if (registry == nullptr) return;
  registry->counter("fault.kernel_faults_injected")
      .add(after.kernel_faults - before.kernel_faults);
  registry->counter("fault.transfer_faults_injected")
      .add(after.transfer_faults - before.transfer_faults);
  registry->counter("fault.alloc_oom_injected").add(after.alloc_ooms - before.alloc_ooms);
  registry->counter("fault.device_lost").add(after.device_losses - before.device_losses);
}

}  // namespace eim::gpusim
