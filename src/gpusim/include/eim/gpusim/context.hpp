// Execution contexts handed to simulated kernels.
//
// A kernel body is ordinary C++ that does its real work on the host and
// *meters* the operations a CUDA kernel would issue: the context converts
// each metered operation into cycles using the device's cost model. Two
// granularities exist, matching how the paper's kernels are written:
//
//  * BlockContext — one warp per block (the sampling kernels of Alg. 2 and
//    the warp-based scan). Costs are warp-wide: a coalesced global access is
//    one transaction for all 32 lanes; divergent scalar accesses charge per
//    lane.
//  * ThreadContext — per-thread kernels (the thread-based scan of Alg. 3).
//    Every access is scalar.
//
// Warp collectives (inclusive scan via __shfl_up_sync, ballot) execute
// sequentially but charge the log2(32)-step parallel cost, exactly the
// O(log d) the paper credits its LT prefix-scan with (§3.3).
#pragma once

#include <cstdint>
#include <span>

#include "eim/gpusim/device_spec.hpp"
#include "eim/support/bits.hpp"

namespace eim::gpusim {

/// Cost-metering base shared by both granularities.
class CostMeter {
 public:
  explicit CostMeter(const DeviceSpec& spec) noexcept : spec_(&spec) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  void add_cycles(std::uint64_t c) noexcept { cycles_ += c; }

 protected:
  const DeviceSpec* spec_;
  std::uint64_t cycles_ = 0;
};

class BlockContext : public CostMeter {
 public:
  BlockContext(std::uint32_t block_id, const DeviceSpec& spec) noexcept
      : CostMeter(spec), block_id_(block_id), shared_free_(spec.shared_memory_per_block) {}

  [[nodiscard]] std::uint32_t block_id() const noexcept { return block_id_; }
  [[nodiscard]] std::uint32_t warp_size() const noexcept { return spec_->warp_size; }

  /// Coalesced warp transactions needed to touch `count` consecutive items.
  [[nodiscard]] std::uint64_t warp_chunks(std::uint64_t count) const noexcept {
    return support::div_ceil<std::uint64_t>(count, spec_->warp_size);
  }

  // -- memory traffic --------------------------------------------------

  /// `transactions` coalesced warp-wide global accesses.
  void charge_global(std::uint64_t transactions = 1) noexcept {
    cycles_ += transactions * spec_->costs.global_latency;
  }
  /// `accesses` divergent (per-lane serialized) global accesses.
  void charge_global_scalar(std::uint64_t accesses) noexcept {
    cycles_ += accesses * spec_->costs.global_latency;
  }
  void charge_shared(std::uint64_t accesses = 1) noexcept {
    cycles_ += accesses * spec_->costs.shared_latency;
  }

  // -- atomics ----------------------------------------------------------

  /// A global atomic issued by `conflicting_lanes` lanes hitting the same
  /// address: base latency plus per-lane serialization (the cost §3.3's
  /// atomic-add LT variant pays and the prefix-scan variant avoids).
  void charge_atomic_global(std::uint64_t conflicting_lanes = 1) noexcept {
    cycles_ += spec_->costs.atomic_global +
               (conflicting_lanes - 1) * spec_->costs.atomic_conflict;
  }
  void charge_atomic_shared(std::uint64_t conflicting_lanes = 1) noexcept {
    cycles_ += spec_->costs.atomic_shared +
               (conflicting_lanes - 1) * spec_->costs.atomic_conflict;
  }

  // -- compute ----------------------------------------------------------

  void charge_alu(std::uint64_t warp_ops = 1) noexcept {
    cycles_ += warp_ops * spec_->costs.alu_op;
  }
  void charge_shuffle(std::uint64_t steps = 1) noexcept {
    cycles_ += steps * spec_->costs.shuffle_op;
  }

  /// In-kernel malloc/free — the dynamic-allocation overhead that dominates
  /// gIM when its shared-memory queue spills (§2.3).
  void charge_device_malloc() noexcept {
    cycles_ += spec_->costs.device_malloc;
    ++malloc_count_;
  }
  [[nodiscard]] std::uint64_t malloc_count() const noexcept { return malloc_count_; }

  // -- shared-memory budget ----------------------------------------------

  /// Claim block shared memory; false when the 48 KB budget is exhausted
  /// (gIM's spill trigger).
  [[nodiscard]] bool try_alloc_shared(std::uint64_t bytes) noexcept {
    if (bytes > shared_free_) return false;
    shared_free_ -= bytes;
    return true;
  }
  void free_shared(std::uint64_t bytes) noexcept { shared_free_ += bytes; }
  [[nodiscard]] std::uint64_t shared_free_bytes() const noexcept { return shared_free_; }

  // -- warp collectives ---------------------------------------------------

  /// Warp-wide inclusive prefix sum over up to warp_size lane values,
  /// in place. Hillis-Steele with __shfl_up_sync: log2(32) = 5 shuffle+add
  /// steps regardless of lane count.
  void warp_inclusive_scan(std::span<float> lane_values) noexcept;

  /// Ballot: bit i set iff lane i's predicate holds. One warp instruction.
  [[nodiscard]] std::uint32_t warp_ballot(std::span<const bool> lane_predicates) noexcept;

  /// Charge-only forms of the two collectives, for kernels whose host side
  /// evaluates the lanes itself (the LT walk's scan, traversal.hpp).
  void charge_warp_scan() noexcept {
    const std::uint32_t steps = support::ceil_log2(spec_->warp_size);
    charge_shuffle(steps);
    charge_alu(steps);
  }
  void charge_warp_ballot() noexcept { charge_alu(1); }

 private:
  std::uint32_t block_id_;
  std::uint64_t shared_free_;
  std::uint64_t malloc_count_ = 0;
};

class ThreadContext : public CostMeter {
 public:
  ThreadContext(std::uint64_t thread_id, const DeviceSpec& spec) noexcept
      : CostMeter(spec), thread_id_(thread_id) {}

  [[nodiscard]] std::uint64_t thread_id() const noexcept { return thread_id_; }

  /// Scalar global accesses (no coalescing — the trade-off the thread-based
  /// scan accepts in exchange for T_n-way parallelism).
  void charge_global(std::uint64_t accesses = 1) noexcept {
    cycles_ += accesses * spec_->costs.global_latency;
  }
  void charge_atomic_global(std::uint64_t ops = 1) noexcept {
    cycles_ += ops * spec_->costs.atomic_global;
  }
  void charge_alu(std::uint64_t ops = 1) noexcept {
    cycles_ += ops * spec_->costs.alu_op;
  }

 private:
  std::uint64_t thread_id_;
};

}  // namespace eim::gpusim
