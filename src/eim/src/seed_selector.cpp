#include "eim/eim/seed_selector.hpp"

#include <algorithm>
#include <utility>

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

namespace {

class ScanKernelPricer final : public PickPricer {
 public:
  ScanKernelPricer(gpusim::Device& device, ScanStrategy strategy, VertexId num_vertices,
                   std::uint64_t num_sets, support::metrics::MetricsRegistry* metrics)
      : device_(device),
        spec_(device.spec()),
        thread_scan_(strategy == ScanStrategy::ThreadPerSet),
        n_(num_vertices),
        num_sets_(num_sets),
        g_lat_(static_cast<std::uint64_t>(spec_.costs.global_latency)),
        // F: one flag per set, device-resident for the selection's duration.
        // The charge has no host payload; greedy_select's `covered` is F.
        f_flags_(device.alloc<std::uint8_t>(std::max<std::uint64_t>(1, num_sets))) {
    if (metrics != nullptr) {
      argmax_kernels_ = &metrics->counter("selector.argmax_kernels");
      update_kernels_ = &metrics->counter("selector.update_kernels");
    }
  }

  void start(const SelectionMirror& mirror) override {
    lengths_ = &mirror.lengths;
    for (const std::uint32_t len : mirror.lengths) {
      max_len_ = std::max(max_len_, len);
      uncovered_search_cycles_ += search_cycles(len);
    }
  }

  void cover(std::uint64_t set_id) override {
    const std::uint64_t len = (*lengths_)[set_id];
    const auto a_lat = static_cast<std::uint64_t>(spec_.costs.atomic_global);
    // The set leaves the uncovered population.
    uncovered_search_cycles_ -= search_cycles(static_cast<std::uint32_t>(len));
    // Decrement pass (Alg. 3 lines 10-12): the finding unit walks the set
    // and atomically subtracts each member's count. A thread does this
    // scalar; a warp coalesces the reads but still issues len atomics.
    dec_cycles_ += thread_scan_ ? len * (g_lat_ + a_lat)
                                : search_cycles(static_cast<std::uint32_t>(len)) +
                                      len * a_lat / spec_.warp_size;
  }

  void charge_pick() override {
    const double launch = spec_.costs.kernel_launch_us * 1e-6;
    // arg max over C: a tree reduction, T_n-wide.
    const std::uint64_t argmax_cycles =
        support::div_ceil<std::uint64_t>(n_, spec_.max_resident_threads()) * g_lat_ +
        support::ceil_log2(std::max<VertexId>(2, n_)) * spec_.costs.shuffle_op;
    device_.timeline().add(
        gpusim::SegmentKind::Kernel, "eim::argmax",
        launch + spec_.cycles_to_seconds(static_cast<double>(argmax_cycles)));
    if (argmax_kernels_ != nullptr) argmax_kernels_->add();

    // Update-kernel makespan: every set costs an F read; uncovered ones add
    // the search; covering units add their decrement walks. Work spreads
    // over min(units, num_sets) parallel units (§3.5's T_n vs W_n), and no
    // unit finishes before the longest set's search.
    const std::uint64_t dec_cycles = std::exchange(dec_cycles_, 0);
    if (num_sets_ == 0) return;
    const std::uint64_t units =
        thread_scan_ ? spec_.max_resident_threads() : spec_.max_resident_warps();
    const std::uint64_t total =
        num_sets_ * g_lat_ + uncovered_search_cycles_ + dec_cycles;
    const std::uint64_t used = std::max<std::uint64_t>(1, std::min(units, num_sets_));
    const std::uint64_t makespan = std::max(total / used, search_cycles(max_len_));
    device_.timeline().add(
        gpusim::SegmentKind::Kernel, "eim::update_counts",
        launch + spec_.cycles_to_seconds(static_cast<double>(makespan)));
    if (update_kernels_ != nullptr) update_kernels_->add();
  }

 private:
  /// Search cost of one uncovered set of `len` members under the strategy.
  [[nodiscard]] std::uint64_t search_cycles(std::uint32_t len) const {
    return thread_scan_ ? binsearch_probes(len) * g_lat_
                        : support::div_ceil<std::uint64_t>(
                              std::max<std::uint32_t>(1, len), spec_.warp_size) *
                              g_lat_;
  }

  gpusim::Device& device_;
  const gpusim::DeviceSpec& spec_;
  bool thread_scan_;
  VertexId n_;
  std::uint64_t num_sets_;
  std::uint64_t g_lat_;
  gpusim::DeviceBuffer<std::uint8_t> f_flags_;
  const std::vector<std::uint32_t>* lengths_ = nullptr;
  std::uint64_t uncovered_search_cycles_ = 0;  ///< sum of per-set search cost
  std::uint64_t dec_cycles_ = 0;               ///< the current pick's decrements
  std::uint32_t max_len_ = 2;
  support::metrics::Counter* argmax_kernels_ = nullptr;
  support::metrics::Counter* update_kernels_ = nullptr;
};

}  // namespace

std::unique_ptr<PickPricer> make_scan_kernel_pricer(
    gpusim::Device& device, ScanStrategy strategy, VertexId num_vertices,
    std::uint64_t num_sets, support::metrics::MetricsRegistry* metrics) {
  return std::make_unique<ScanKernelPricer>(device, strategy, num_vertices, num_sets,
                                            metrics);
}

imm::SelectionResult greedy_select(const SelectionMirror& mirror, VertexId n,
                                   std::uint32_t k, PickPricer& pricer, ArgMaxMode mode,
                                   support::metrics::MetricsRegistry* metrics,
                                   support::profiler::WallProfile* profile) {
  EIM_CHECK_MSG(k >= 1 && k <= n, "k out of range");
  const std::uint64_t num_sets = mirror.lengths.size();

  if (metrics != nullptr) {
    metrics->counter("selector.select_calls").add();
    metrics->counter("selector.elements_decoded").add(mirror.flat.size());
  }
  support::metrics::Counter* fallback_picks =
      metrics != nullptr ? &metrics->counter("selector.fallback_picks") : nullptr;
  support::metrics::Histogram* gain_hist =
      metrics != nullptr ? &metrics->histogram("selector.gain_per_pick") : nullptr;

  // Inverted index vertex -> set ids (host-side greedy accelerator). Its
  // bucket sizes are the per-vertex counts C over exactly these sets.
  std::vector<std::uint64_t> index_offsets;
  std::vector<std::uint64_t> index_sets;
  {
    const support::profiler::ScopedWallTimer preprocess_scope(
        profile != nullptr ? &profile->timer("selector.preprocess") : nullptr);
    build_inverted_index(mirror.flat, mirror.starts, num_sets, n, index_offsets,
                         index_sets);
  }
  std::vector<std::uint32_t> counts(n);
  for (VertexId v = 0; v < n; ++v) {
    counts[v] = static_cast<std::uint32_t>(index_offsets[v + 1] - index_offsets[v]);
  }
  // uint8_t, not vector<bool>: the bit proxies sit inside the inner
  // decrement loop and cost a shift+mask per touch.
  std::vector<std::uint8_t> covered(num_sets, 0);
  std::vector<std::uint8_t> chosen(n, 0);
  pricer.start(mirror);

  imm::SelectionResult result;
  result.seeds.reserve(k);

  // The modeled device always runs a full arg-max reduction; the *host*
  // answer comes from the lazy heap (or the linear reference scan in test
  // mode) — both produce the same (count, smallest-id) winner.
  LazyArgMaxHeap heap{mode == ArgMaxMode::kLazyHeap
                          ? std::span<const std::uint32_t>(counts)
                          : std::span<const std::uint32_t>()};
  support::profiler::WallTimer* pick_w =
      profile != nullptr ? &profile->timer("selector.pick") : nullptr;

  for (std::uint32_t pick = 0; pick < k; ++pick) {
    const support::profiler::ScopedWallTimer pick_scope(pick_w);
    VertexId best = graph::kInvalidVertex;
    std::uint32_t best_count = 0;
    if (mode == ArgMaxMode::kLazyHeap) {
      if (!heap.pop_best(counts, chosen, best, best_count)) best = graph::kInvalidVertex;
    } else {
      for (VertexId v = 0; v < n; ++v) {
        if (chosen[v] == 0 && counts[v] > best_count) {
          best = v;
          best_count = counts[v];
        }
      }
    }
    if (best == graph::kInvalidVertex) {
      // Every set is covered; the remaining picks are tie-broken zeros. The
      // device still runs each of them, so every filler is charged like an
      // unsaturated pick: k charged picks either way.
      for (VertexId v = 0; v < n && result.seeds.size() < k; ++v) {
        if (chosen[v] == 0) {
          pricer.charge_pick();
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

    for (std::uint64_t idx = index_offsets[best]; idx < index_offsets[best + 1]; ++idx) {
      const std::uint64_t set_id = index_sets[idx];
      if (covered[set_id] != 0) continue;
      covered[set_id] = 1;
      ++result.covered_sets;
      pricer.cover(set_id);
      for (std::uint64_t p = mirror.starts[set_id]; p < mirror.starts[set_id + 1]; ++p) {
        --counts[mirror.flat[p]];
      }
    }
    pricer.charge_pick();
  }

  result.coverage_fraction = num_sets == 0 ? 0.0
                                           : static_cast<double>(result.covered_sets) /
                                                 static_cast<double>(num_sets);
  return result;
}

imm::SelectionResult GpuSeedSelector::select(const DeviceRrrCollection& collection,
                                             std::uint32_t k) {
  const std::unique_ptr<PickPricer> pricer = make_scan_kernel_pricer(
      *device_, strategy_, collection.num_vertices(), collection.num_sets(), metrics_);
  // Host mirror: decode every set once (the data already lives on the
  // device; no transfer is charged).
  const SelectionMirror mirror = decode_mirror(
      collection.num_sets(), collection.has_spilled(), profile_,
      [&](std::uint64_t i) { return collection.set_length(i); },
      [&](std::uint64_t i, std::span<VertexId> out) { collection.decode_set(i, out); });
  return greedy_select(mirror, collection.num_vertices(), k, *pricer, argmax_mode_,
                       metrics_, profile_);
}

}  // namespace eim::eim_impl
