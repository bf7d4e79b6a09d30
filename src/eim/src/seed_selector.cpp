#include "eim/eim/seed_selector.hpp"

#include <algorithm>

#include "eim/eim/lazy_greedy.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/thread_pool.hpp"

namespace eim::eim_impl {

using graph::VertexId;

void build_inverted_index(std::span<const VertexId> flat,
                          std::span<const std::uint64_t> starts, std::uint64_t num_sets,
                          VertexId n, std::vector<std::uint64_t>& index_offsets,
                          std::vector<std::uint64_t>& index_sets) {
  auto& pool = support::ThreadPool::global();
  // Parallelism only pays once the scatter dwarfs the O(chunks * n)
  // histogram footprint; small problems keep the single-chunk (serial)
  // path.
  const std::size_t num_chunks =
      (pool.size() > 1 && flat.size() >= 65536 && flat.size() >= n)
          ? std::min<std::size_t>(4 * pool.size(), static_cast<std::size_t>(num_sets))
          : 1;
  const auto chunk_begin = [&](std::size_t c) {
    return static_cast<std::uint64_t>(num_sets * c / num_chunks);
  };

  std::vector<std::vector<std::uint64_t>> hist(num_chunks);
  pool.parallel_for(
      0, num_chunks,
      [&](std::size_t c) {
        auto& h = hist[c];
        h.assign(static_cast<std::size_t>(n), 0);
        for (std::uint64_t p = starts[chunk_begin(c)]; p < starts[chunk_begin(c + 1)];
             ++p) {
          ++h[flat[p]];
        }
      },
      /*grain=*/1);

  // Serial prefix over (vertex, chunk): turns counts into write cursors.
  index_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t running = 0;
  for (VertexId v = 0; v < n; ++v) {
    index_offsets[v] = running;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t cnt = hist[c][v];
      hist[c][v] = running;  // reuse as this chunk's write base for v
      running += cnt;
    }
  }
  index_offsets[n] = running;

  index_sets.resize(flat.size());
  pool.parallel_for(
      0, num_chunks,
      [&](std::size_t c) {
        auto& cursor = hist[c];
        for (std::uint64_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
          for (std::uint64_t p = starts[i]; p < starts[i + 1]; ++p) {
            index_sets[cursor[flat[p]]++] = i;
          }
        }
      },
      /*grain=*/1);
}

imm::SelectionResult GpuSeedSelector::select(const DeviceRrrCollection& collection,
                                             std::uint32_t k) {
  const VertexId n = collection.num_vertices();
  EIM_CHECK_MSG(k >= 1 && k <= n, "k out of range");

  const std::uint64_t num_sets = collection.num_sets();
  const auto& spec = device_->spec();
  const auto g_lat = static_cast<std::uint64_t>(spec.costs.global_latency);
  const auto a_lat = static_cast<std::uint64_t>(spec.costs.atomic_global);
  const std::uint64_t warp = spec.warp_size;

  // F: one flag per set, device-resident for the selection's duration. The
  // charge has no host payload; `covered` below is F.
  const auto f_flags = device_->alloc<std::uint8_t>(std::max<std::uint64_t>(1, num_sets));

  // Host mirror: decode every set once (the data already lives on the
  // device; no transfer is charged).
  std::vector<std::uint32_t> lengths(num_sets);
  std::vector<std::uint64_t> starts(num_sets + 1, 0);
  for (std::uint64_t i = 0; i < num_sets; ++i) {
    lengths[i] = collection.set_length(i);
    starts[i + 1] = starts[i] + lengths[i];
  }
  std::vector<VertexId> flat(starts[num_sets]);
  {
    // Bulk word-streaming decode, parallel across sets (disjoint output
    // slices, so the layout is identical to the serial per-element walk).
    const support::profiler::ScopedWallTimer decode_scope(
        profile_ != nullptr ? &profile_->timer("codec.decode") : nullptr);
    if (collection.has_spilled()) {
      // Spilled sets stream up through the store's staging pool, which is
      // not thread-safe and whose modeled transfer charges must land on the
      // timeline in a deterministic order — decode serially, in set order.
      for (std::uint64_t i = 0; i < num_sets; ++i) {
        collection.decode_set(
            i, std::span<VertexId>(flat.data() + starts[i], lengths[i]));
      }
    } else {
      support::ThreadPool::global().parallel_for(
          0, num_sets,
          [&](std::size_t i) {
            collection.decode_set(
                i, std::span<VertexId>(flat.data() + starts[i], lengths[i]));
          },
          /*grain=*/0);
    }
  }

  if (metrics_ != nullptr) {
    metrics_->counter("selector.select_calls").add();
    metrics_->counter("selector.elements_decoded").add(flat.size());
  }
  support::metrics::Counter* argmax_kernels =
      metrics_ != nullptr ? &metrics_->counter("selector.argmax_kernels") : nullptr;
  support::metrics::Counter* update_kernels =
      metrics_ != nullptr ? &metrics_->counter("selector.update_kernels") : nullptr;
  support::metrics::Counter* fallback_picks =
      metrics_ != nullptr ? &metrics_->counter("selector.fallback_picks") : nullptr;
  support::metrics::Histogram* gain_hist =
      metrics_ != nullptr ? &metrics_->histogram("selector.gain_per_pick") : nullptr;

  // Inverted index vertex -> set ids (host-side greedy accelerator).
  std::vector<std::uint64_t> index_offsets;
  std::vector<std::uint64_t> index_sets;
  {
    const support::profiler::ScopedWallTimer preprocess_scope(
        profile_ != nullptr ? &profile_->timer("selector.preprocess") : nullptr);
    build_inverted_index(flat, starts, num_sets, n, index_offsets, index_sets);
  }

  std::vector<std::uint32_t> counts(collection.counts().begin(),
                                    collection.counts().end());
  // uint8_t, not vector<bool>: the bit proxies sit inside the inner
  // decrement loop and cost a shift+mask per touch.
  std::vector<std::uint8_t> covered(num_sets, 0);
  std::vector<std::uint8_t> chosen(n, 0);

  // Running aggregates for the update-kernel cost model.
  const bool thread_scan = strategy_ == ScanStrategy::ThreadPerSet;
  std::uint64_t uncovered_cnt = num_sets;
  std::uint64_t uncovered_search_cycles = 0;  // sum of per-set search cost
  std::uint32_t max_len = 2;
  for (const std::uint32_t len : lengths) {
    max_len = std::max(max_len, len);
    uncovered_search_cycles +=
        thread_scan ? binsearch_probes(len) * g_lat
                    : support::div_ceil<std::uint64_t>(std::max<std::uint32_t>(1, len),
                                                       warp) *
                          g_lat;
  }

  // Parallelism of the chosen strategy (§3.5's T_n vs W_n).
  const std::uint64_t units =
      thread_scan ? spec.max_resident_threads() : spec.max_resident_warps();

  imm::SelectionResult result;
  result.seeds.reserve(k);

  // arg max over C: a tree reduction, T_n-wide. One launch per pick —
  // including the degenerate tail picks below — so modeled time always
  // reflects k kernel pairs.
  const auto charge_argmax = [&] {
    const std::uint64_t per_unit =
        support::div_ceil<std::uint64_t>(n, spec.max_resident_threads());
    const std::uint64_t cycles =
        per_unit * g_lat + support::ceil_log2(std::max<VertexId>(2, n)) *
                               spec.costs.shuffle_op;
    device_->timeline().add(gpusim::SegmentKind::Kernel, "eim::argmax",
                            spec.costs.kernel_launch_us * 1e-6 +
                                spec.cycles_to_seconds(static_cast<double>(cycles)));
    if (argmax_kernels != nullptr) argmax_kernels->add();
  };

  // Update-kernel makespan: every set costs an F read; uncovered ones add
  // the search; covering units add their decrement walks. Work spreads
  // over min(units, num_sets) parallel units.
  const auto charge_update = [&](std::uint64_t dec_cycles) {
    if (num_sets == 0) return;
    const std::uint64_t f_cycles = num_sets * g_lat;
    const std::uint64_t total = f_cycles + uncovered_search_cycles + dec_cycles;
    const std::uint64_t used = std::max<std::uint64_t>(1, std::min(units, num_sets));
    const std::uint64_t floor_cycles =
        thread_scan ? binsearch_probes(max_len) * g_lat
                    : support::div_ceil<std::uint64_t>(max_len, warp) * g_lat;
    const std::uint64_t makespan = std::max(total / used, floor_cycles);
    device_->timeline().add(gpusim::SegmentKind::Kernel, "eim::update_counts",
                            spec.costs.kernel_launch_us * 1e-6 +
                                spec.cycles_to_seconds(static_cast<double>(makespan)));
    if (update_kernels != nullptr) update_kernels->add();
  };

  // The modeled device always runs a full arg-max reduction; the *host*
  // answer comes from the lazy heap (or the linear reference scan in
  // test mode) — both produce the same (count, smallest-id) winner.
  LazyArgMaxHeap heap{argmax_mode_ == ArgMaxMode::kLazyHeap
                          ? std::span<const std::uint32_t>(counts)
                          : std::span<const std::uint32_t>()};

  support::profiler::WallTimer* pick_w =
      profile_ != nullptr ? &profile_->timer("selector.pick") : nullptr;

  for (std::uint32_t pick = 0; pick < k; ++pick) {
    const support::profiler::ScopedWallTimer pick_scope(pick_w);
    charge_argmax();

    VertexId best = graph::kInvalidVertex;
    std::uint32_t best_count = 0;
    if (argmax_mode_ == ArgMaxMode::kLazyHeap) {
      if (!heap.pop_best(counts, chosen, best, best_count)) {
        best = graph::kInvalidVertex;
      }
    } else {
      for (VertexId v = 0; v < n; ++v) {
        if (chosen[v] == 0 && counts[v] > best_count) {
          best = v;
          best_count = counts[v];
        }
      }
    }
    if (best == graph::kInvalidVertex) {
      // Every set is covered; the remaining picks are tie-broken zeros.
      // The device still runs the per-pick kernel pair for each of them —
      // this pick's arg-max is already charged above, so charge its update
      // plus a full pair per additional filler to keep saturated runs at
      // exactly k argmax/update launches like unsaturated ones.
      bool first_filler = true;
      for (VertexId v = 0; v < n && result.seeds.size() < k; ++v) {
        if (chosen[v] == 0) {
          if (!first_filler) charge_argmax();
          first_filler = false;
          charge_update(0);
          if (fallback_picks != nullptr) fallback_picks->add();
          if (gain_hist != nullptr) gain_hist->observe(0);
          chosen[v] = 1;
          result.seeds.push_back(v);
        }
      }
      break;
    }
    chosen[best] = 1;
    result.seeds.push_back(best);
    if (gain_hist != nullptr) gain_hist->observe(best_count);

    // Cover best's sets; track decrement traffic for the cost model.
    std::uint64_t dec_cycles = 0;
    for (std::uint64_t idx = index_offsets[best]; idx < index_offsets[best + 1]; ++idx) {
      const std::uint64_t set_id = index_sets[idx];
      if (covered[set_id] != 0) continue;
      covered[set_id] = 1;
      ++result.covered_sets;

      const std::uint32_t len = lengths[set_id];
      // Aggregate bookkeeping: this set leaves the uncovered population.
      --uncovered_cnt;
      uncovered_search_cycles -=
          thread_scan
              ? binsearch_probes(len) * g_lat
              : support::div_ceil<std::uint64_t>(std::max<std::uint32_t>(1, len), warp) *
                    g_lat;
      // Decrement pass (Alg. 3 lines 10-12): the finding unit walks the set
      // and atomically subtracts each member's count. A thread does this
      // scalar; a warp coalesces the reads but still issues len atomics.
      dec_cycles += thread_scan
                        ? static_cast<std::uint64_t>(len) * (g_lat + a_lat)
                        : support::div_ceil<std::uint64_t>(
                              std::max<std::uint32_t>(1, len), warp) *
                                  g_lat +
                              static_cast<std::uint64_t>(len) * a_lat / warp;

      for (std::uint64_t p = starts[set_id]; p < starts[set_id + 1]; ++p) {
        --counts[flat[p]];
      }
    }

    charge_update(dec_cycles);
  }

  result.coverage_fraction = num_sets == 0 ? 0.0
                                           : static_cast<double>(result.covered_sets) /
                                                 static_cast<double>(num_sets);
  return result;
}

}  // namespace eim::eim_impl
