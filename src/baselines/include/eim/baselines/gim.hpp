// gIM-like baseline (Shahrouz, Salehkaleybar, Hashemi — TPDS 2021), re-built
// on the same simulator substrate as eIM so the comparison isolates the
// *design* differences the paper credits for its speedups:
//
//  * shared-memory BFS queue per block, spilled to dynamically-allocated
//    global memory when it fills (§2.3) — fast for small traversals, but
//    every spill pays an in-kernel malloc and leaves allocator fragmentation
//    behind, which is gIM's documented OOM mechanism;
//  * each finished set is written to a dynamically-allocated temporary
//    global buffer and then copied into the final collection (double
//    traffic, one more malloc);
//  * R is stored uncompressed and grown by doubling (transiently holding
//    old + new), with no source elimination;
//  * seed selection scans one *warp* per RRR set.
//
// Determinism contract: identical sample streams as the serial reference
// and eIM (imm::kSampleStreamTag), so with elimination off all backends
// produce identical RRR sets — the integration tests rely on this.
#pragma once

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::baselines {

struct GimConfig {
  /// Shared-memory queue capacity in vertices. gIM budgets most of the
  /// 48 KB block shared memory for the queue; 4096 entries (16 KB) leaves
  /// room for its frontier metadata.
  std::uint32_t shared_queue_entries = 4096;
  /// Allocator model for in-kernel mallocs: each allocation is rounded up
  /// to the next power of two plus a header, and the rounding waste stays
  /// unavailable until the run ends (cudaMalloc-in-kernel heap behaviour —
  /// the fragmentation the paper blames for gIM's exhaustion of GPU memory).
  std::uint32_t malloc_header_bytes = 64;
  /// In-kernel heap pressure: each malloc's cost grows by
  /// base * allocations_so_far / heap_pressure_scale, modeling the free-list
  /// search and global heap-lock contention that make CUDA's device-side
  /// allocator degrade as it fills — the "repeated dynamic memory
  /// allocations ... introduce overhead" behaviour of §2.3. This is the
  /// term that makes eIM's advantage over gIM grow with theta (Tables 2-5).
  std::uint64_t heap_pressure_scale = 50'000;
  /// Long-run fragmentation per in-kernel malloc/free pair, in bytes
  /// (headers and split blocks that never coalesce).
  std::uint64_t frag_bytes_per_malloc = 8;
  /// gIM lays R out as fixed-width set slots sized from an estimate of the
  /// maximum traversal, because a running kernel cannot grow its arrays.
  /// Slot width = slot_padding_factor * average observed set size. This
  /// padded allocation — not the useful payload — is what exhausts device
  /// memory when theta or the set sizes are large (the paper's OOM cells).
  double slot_padding_factor = 4.0;
  /// When set, the run's collection counters (rrr.*) and its wave count
  /// (sampler.waves) land here, named as eIM's. Must outlive the run.
  support::metrics::MetricsRegistry* metrics = nullptr;
};

/// Run the gIM-like pipeline. Throws DeviceOutOfMemoryError when the device
/// budget is exhausted (the paper's OOM cells).
[[nodiscard]] eim_impl::EimResult run_gim(gpusim::Device& device, const graph::Graph& g,
                                          graph::DiffusionModel model,
                                          const imm::ImmParams& params,
                                          const GimConfig& config = {});

}  // namespace eim::baselines
