#include "eim/gpusim/device.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "eim/support/error.hpp"
#include "eim/support/thread_pool.hpp"

namespace eim::gpusim {

DeviceSpec make_benchmark_device(std::uint64_t memory_mb) {
  DeviceSpec spec;
  spec.name = "sim-rtx-a6000-scaled";
  spec.global_memory_bytes = memory_mb << 20;
  return spec;
}

Device::Device(DeviceSpec spec)
    : spec_(std::move(spec)), memory_(spec_.global_memory_bytes) {}

namespace {

/// Greedy list-scheduling makespan: pack unit costs onto `slots` resident
/// slots in launch order; the largest slot load is the modeled completion
/// time (within 2x of optimal by Graham's bound, and exact for the
/// self-balancing kernels used here).
std::uint64_t schedule_makespan(const std::vector<std::uint64_t>& unit_cycles,
                                std::uint64_t slots) {
  if (unit_cycles.empty() || slots == 0) return 0;
  if (unit_cycles.size() <= slots) {
    return *std::max_element(unit_cycles.begin(), unit_cycles.end());
  }
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      loads;
  for (std::uint64_t s = 0; s < slots; ++s) loads.push(0);
  for (const std::uint64_t c : unit_cycles) {
    const std::uint64_t lowest = loads.top();
    loads.pop();
    loads.push(lowest + c);
  }
  std::uint64_t makespan = 0;
  while (!loads.empty()) {
    makespan = loads.top();
    loads.pop();
  }
  return makespan;
}

}  // namespace

void Device::mark_lost(const std::string& label) {
  if (!memory_.lost()) {
    memory_.set_lost();
    ++fault_stats_.device_losses;
  }
  throw support::DeviceLostError(spec_.name + ": " + label);
}

void Device::check_launch_faults(const std::string& label) {
  if (memory_.lost()) mark_lost(label);
  if (fault_plan_.device_loss_at_seconds >= 0.0 &&
      timeline_.total_seconds() >= fault_plan_.device_loss_at_seconds) {
    mark_lost(label);
  }
  const std::uint64_t ordinal = kernel_ordinal_++;
  if (ordinal == fault_plan_.process_abort_kernel_ordinal) {
    // Scripted process death: thrown before any block body runs, so the
    // launch mutates nothing — exactly what a SIGKILL at this point leaves
    // behind. The catcher must treat all in-memory state as gone.
    ++fault_stats_.process_aborts;
    throw support::ProcessAbortError("kernel launch '" + label + "'", ordinal);
  }
  if (ordinal >= fault_plan_.device_loss_kernel_ordinal) mark_lost(label);
  if (FaultPlan::hits(fault_plan_.kernel_fault_ordinals, ordinal)) {
    ++fault_stats_.kernel_faults;
    // The aborted launch still burns its host-side launch latency.
    timeline_.add(SegmentKind::Kernel, label + " [faulted]",
                  spec_.costs.kernel_launch_us * 1e-6);
    throw support::DeviceFaultError("kernel launch '" + label + "' failed", ordinal);
  }
}

void Device::check_transfer_faults(const std::string& label) {
  if (memory_.lost()) mark_lost(label);
  if (fault_plan_.device_loss_at_seconds >= 0.0 &&
      timeline_.total_seconds() >= fault_plan_.device_loss_at_seconds) {
    mark_lost(label);
  }
  const std::uint64_t ordinal = transfer_ordinal_++;
  if (FaultPlan::hits(fault_plan_.transfer_fault_ordinals, ordinal)) {
    ++fault_stats_.transfer_faults;
    // The broken transfer paid its per-transfer setup before failing.
    timeline_.add(SegmentKind::Transfer, label + " [faulted]",
                  spec_.costs.pcie_latency_us * 1e-6);
    throw support::DeviceFaultError("transfer '" + label + "' failed", ordinal);
  }
}

KernelStats Device::launch_blocks(const std::string& label, std::uint32_t num_blocks,
                                  const std::function<void(BlockContext&)>& body) {
  return launch_metered(label, num_blocks, [&](std::span<std::uint64_t> block_cycles) {
    // Adaptive grain: per-block bodies are heavy, so the dispatch overhead
    // of grain=1 used to dominate small launches; chunking stays dynamic via
    // the pool's shared cursor.
    support::ThreadPool::global().parallel_for(
        0, num_blocks,
        [&](std::size_t b) {
          BlockContext ctx(static_cast<std::uint32_t>(b), spec_);
          body(ctx);
          block_cycles[b] = ctx.cycles();
        },
        /*grain=*/0);
  });
}

KernelStats Device::launch_metered(
    const std::string& label, std::uint32_t num_blocks,
    const std::function<void(std::span<std::uint64_t>)>& run) {
  EIM_CHECK_MSG(num_blocks > 0, "kernel launched with zero blocks");
  check_launch_faults(label);
  std::vector<std::uint64_t> block_cycles(num_blocks, 0);
  run(block_cycles);

  KernelStats stats;
  stats.label = label;
  stats.units = num_blocks;
  for (const std::uint64_t c : block_cycles) stats.work_cycles += c;
  // One single-warp block occupies one resident warp slot.
  stats.makespan_cycles = schedule_makespan(block_cycles, spec_.max_resident_warps());
  stats.seconds = spec_.costs.kernel_launch_us * 1e-6 +
                  spec_.cycles_to_seconds(static_cast<double>(stats.makespan_cycles));
  timeline_.add(SegmentKind::Kernel, label, stats.seconds);
  return stats;
}

void Device::transfer_to_device(const std::string& label, std::uint64_t bytes) {
  check_transfer_faults("H2D " + label);
  const double seconds = spec_.costs.pcie_latency_us * 1e-6 +
                         static_cast<double>(bytes) / (spec_.costs.pcie_gbytes_per_sec * 1e9);
  timeline_.add(SegmentKind::Transfer, "H2D " + label, seconds);
}

void Device::transfer_to_host(const std::string& label, std::uint64_t bytes) {
  check_transfer_faults("D2H " + label);
  const double seconds = spec_.costs.pcie_latency_us * 1e-6 +
                         static_cast<double>(bytes) / (spec_.costs.pcie_gbytes_per_sec * 1e9);
  timeline_.add(SegmentKind::Transfer, "D2H " + label, seconds);
}

void Device::charge_allocation_event(const std::string& label) {
  // cudaMalloc/cudaFree synchronize the device; ~100 us is typical.
  timeline_.add(SegmentKind::Allocation, label, 100e-6);
}

}  // namespace eim::gpusim
