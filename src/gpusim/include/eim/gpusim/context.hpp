// The execution context handed to simulated kernels.
//
// A kernel body is ordinary C++ that does its real work on the host and
// *meters* the operations a CUDA kernel would issue: the context converts
// each metered operation into cycles using the device's cost model. Every
// kernel is launched one warp per block, matching the paper's sampling
// kernels (Alg. 2). Costs are warp-wide: a coalesced global access is one
// transaction for all 32 lanes. The selection pass (Alg. 3) is priced in
// closed form by its pickers, not launched here.
//
// Warp collectives (inclusive scan via __shfl_up_sync, ballot) are charged
// only: the kernel evaluates the lanes itself, and the context charges the
// log2(32)-step parallel cost, exactly the O(log d) the paper credits its LT
// prefix-scan with (§3.3).
#pragma once

#include <cstdint>

#include "eim/gpusim/device_spec.hpp"
#include "eim/support/bits.hpp"

namespace eim::gpusim {

class BlockContext {
 public:
  BlockContext(std::uint32_t block_id, const DeviceSpec& spec) noexcept
      : spec_(&spec), block_id_(block_id) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  void add_cycles(std::uint64_t c) noexcept { cycles_ += c; }

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
  void charge_device_malloc() noexcept { cycles_ += spec_->costs.device_malloc; }

  // -- warp collectives ---------------------------------------------------

  /// Warp-wide inclusive prefix sum: Hillis-Steele with __shfl_up_sync,
  /// log2(32) = 5 shuffle+add steps regardless of lane count.
  void charge_warp_scan() noexcept {
    const std::uint32_t steps = support::ceil_log2(spec_->warp_size);
    charge_shuffle(steps);
    charge_alu(steps);
  }
  /// Ballot: one warp instruction.
  void charge_warp_ballot() noexcept { charge_alu(1); }

 private:
  const DeviceSpec* spec_;
  std::uint32_t block_id_;
  std::uint64_t cycles_ = 0;
};

}  // namespace eim::gpusim
