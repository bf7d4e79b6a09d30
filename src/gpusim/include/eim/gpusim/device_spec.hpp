// Device description and cost model for the GPU execution simulator.
//
// The simulator substitutes for the paper's NVIDIA RTX A6000 (84 SMs,
// 10752 CUDA cores, 48 GB). Kernels written against it execute for real on
// the host — they produce actual RRR sets and seed sets — while every
// memory access, atomic, shuffle, and allocation is *metered* against this
// cost table, and the device timeline converts metered cycles into modeled
// seconds. The paper's measured effects (warp-vs-thread scan scaling,
// dynamic-allocation overhead, PCIe transfer cost, OOM) are all functions of
// these quantities, which is what makes the substitution faithful in shape.
//
// Latency constants follow the usual microbenchmark folklore for Ampere-class
// parts (global ~400 cycles, shared ~30, atomics ~100+); they need only be
// *relatively* right for the reproduced comparisons to hold.
#pragma once

#include <cstdint>
#include <string>

namespace eim::gpusim {

struct CostModel {
  // Memory system, in cycles.
  std::uint32_t global_latency = 400;    ///< one coalesced warp transaction
  std::uint32_t shared_latency = 30;     ///< one conflict-free warp access
  std::uint32_t atomic_global = 120;     ///< uncontended global atomic
  std::uint32_t atomic_shared = 40;      ///< uncontended shared atomic
  std::uint32_t atomic_conflict = 60;    ///< extra per serialized conflicting lane

  // Compute, in cycles (warp-wide instruction).
  std::uint32_t alu_op = 4;
  std::uint32_t shuffle_op = 8;          ///< one __shfl_up_sync step

  // Runtime events.
  std::uint32_t device_malloc = 6000;    ///< in-kernel malloc/free (gIM's spills)
  double kernel_launch_us = 5.0;         ///< fixed host-side launch latency

  // Host <-> device interconnect.
  double pcie_gbytes_per_sec = 12.0;     ///< effective PCIe 4.0 x16 bandwidth
  double pcie_latency_us = 10.0;         ///< per-transfer setup latency

  // Host <-> disk spill tier (TieredRrrStore's T2; NetworkSpec-style
  // bandwidth + latency so the spill tax lands in modeled seconds,
  // docs/PERFORMANCE.md "Spill overhead").
  double disk_gbytes_per_sec = 2.0;      ///< effective NVMe sequential bandwidth
  double disk_latency_us = 100.0;        ///< per-block submit + sync latency
};

struct DeviceSpec {
  std::string name = "sim-rtx-a6000";
  std::uint32_t num_sms = 84;
  std::uint32_t warp_size = 32;
  std::uint32_t max_warps_per_sm = 48;       ///< resident warp slots
  std::uint32_t lanes_per_sm = 128;          ///< CUDA cores per SM
  std::uint64_t global_memory_bytes = 48ull << 30;
  double clock_ghz = 1.41;
  CostModel costs;

  /// Resident warp capacity of the whole device.
  [[nodiscard]] std::uint64_t max_resident_warps() const noexcept {
    return static_cast<std::uint64_t>(num_sms) * max_warps_per_sm;
  }
  /// Launchable threads (the paper's T_n in §3.5).
  [[nodiscard]] std::uint64_t max_resident_threads() const noexcept {
    return max_resident_warps() * warp_size;
  }
  [[nodiscard]] double cycles_to_seconds(double cycles) const noexcept {
    return cycles / (clock_ghz * 1e9);
  }
};

/// A spec scaled down for the synthetic benchmark networks: memory shrinks
/// from 48 GB to `memory_mb` so gIM's over-allocation hits OOM on the scaled
/// datasets exactly where it hits on the real ones at full scale.
[[nodiscard]] DeviceSpec make_benchmark_device(std::uint64_t memory_mb = 192);

}  // namespace eim::gpusim
