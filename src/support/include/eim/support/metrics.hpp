// Run-wide metrics: counters, gauges, and phase timers.
//
// The registry is the instrumentation substrate for the whole pipeline —
// sampler commit retries, collection regrows, selector decode traffic,
// device memory high-water marks — so that every run (CLI or bench) can
// emit one machine-readable report with the numbers the paper's figures
// are built from (per-phase time, peak memory, queue/commit traffic).
//
// Thread-safety: instrument handles (Counter/Gauge/Histogram/PhaseTimer) are
// lock-free atomics, safe to bump from sampler blocks running on the host
// pool. Registration (counter()/gauge()/histogram()/phase()/wall_timer())
// takes a mutex and returns a reference that stays valid for the registry's
// lifetime — look handles up once outside hot loops. write_json() snapshots
// under the same mutex.
//
// The JSON schema ("eim.metrics.v3") is documented in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "eim/support/json.hpp"

namespace eim::support::metrics {

/// Monotone event count (relaxed atomic increments).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write or high-water-mark sample of an instantaneous quantity.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }

  /// Racy-max update: keeps the largest value ever observed.
  void max_update(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed log2-bucket distribution of an unsigned quantity (RRR set sizes,
/// queue depths, per-pick gains). Bucket 0 counts zeros; bucket b (1..64)
/// counts values of bit width b, i.e. the range [2^(b-1), 2^b). Buckets,
/// count, sum, and max are all lock-free relaxed atomics, so observe() is
/// safe from sampler blocks running concurrently on the host pool.
class Histogram {
 public:
  static constexpr std::uint32_t kNumBuckets = 65;

  static constexpr std::uint32_t bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0u : static_cast<std::uint32_t>(64 - std::countl_zero(v));
  }
  /// Largest value bucket `b` can hold (its reported "le" bound).
  static constexpr std::uint64_t bucket_upper(std::uint32_t b) noexcept {
    return b == 0 ? 0 : (b >= 64 ? ~0ull : (1ull << b) - 1);
  }

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (cur < v && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Duration convenience: records whole nanoseconds, so the log2 buckets
  /// resolve from ~1 ns to centuries (docs/OBSERVABILITY.md).
  void observe_duration(double seconds) noexcept {
    observe(seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9 + 0.5));
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_value() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::uint32_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Bucket-resolution quantile estimate: the upper bound of the first
  /// bucket whose cumulative count reaches q * count, clamped to the true
  /// max. q in (0, 1]; returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  /// Checkpoint-resume merge: fold `n` prior observations into bucket `b`
  /// (also advances count), then fold the prior sum/max via merge_totals.
  void merge_bucket(std::uint32_t b, std::uint64_t n) noexcept {
    buckets_[b < kNumBuckets ? b : kNumBuckets - 1].fetch_add(
        n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
  }
  void merge_totals(std::uint64_t sum, std::uint64_t max_value) noexcept {
    sum_.fetch_add(sum, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (cur < max_value &&
           !max_.compare_exchange_weak(cur, max_value, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Accumulated time for one named pipeline phase. Wall seconds are host
/// time (what the operator waits for); modeled seconds are simulated device
/// time (what the paper's speedup plots compare). Both accumulate across
/// entries because IMM phases interleave (sample, select, sample, ...).
class PhaseTimer {
 public:
  void add_wall(double seconds) noexcept {
    atomic_add(wall_, seconds);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_modeled(double seconds) noexcept { atomic_add(modeled_, seconds); }

  [[nodiscard]] double wall_seconds() const noexcept {
    return wall_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double modeled_seconds() const noexcept {
    return modeled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t entries() const noexcept {
    return entries_.load(std::memory_order_relaxed);
  }

  /// Checkpoint-resume merge: fold a prior run segment's accumulated wall /
  /// modeled seconds and entry count into this timer.
  void merge(double wall, double modeled, std::uint64_t entries) noexcept {
    atomic_add(wall_, wall);
    atomic_add(modeled_, modeled);
    entries_.fetch_add(entries, std::memory_order_relaxed);
  }

 private:
  /// CAS add (std::atomic<double>::fetch_add needs a newer libstdc++).
  static void atomic_add(std::atomic<double>& a, double delta) noexcept {
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> wall_{0.0};
  std::atomic<double> modeled_{0.0};
  std::atomic<std::uint64_t> entries_{0};
};

/// Named instrument store. Instruments are created on first lookup and live
/// as long as the registry; names are dotted paths ("sampler.commit_retries").
///
/// Wall timers are log2 histograms of whole host nanoseconds, one per hot
/// scope ("sampler.wave", "codec.decode"), kept in a map of their own: they
/// measure the host, not the modeled run, so they never share a section with
/// the modeled-duration histograms. write_json() leaves them out (checkpoint
/// snapshots and bench-cell metrics carry modeled state only);
/// write_wall_json() serializes them for RunReport's "wall" section.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  [[nodiscard]] PhaseTimer& phase(std::string_view name);
  [[nodiscard]] Histogram& wall_timer(std::string_view name);

  /// Serialize the registry as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...},"phases":[{...}]}.
  /// Names sort lexicographically so reports diff cleanly across runs.
  void write_json(JsonWriter& w) const;

  /// Serialize the wall timers as one JSON object keyed by timer name, each
  /// value {"entries","total_seconds","p50_ns","p95_ns","max_ns"}; names
  /// sort lexicographically.
  void write_wall_json(JsonWriter& w) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<PhaseTimer>, std::less<>> phases_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> wall_timers_;
};

/// RAII wall-clock scope for one phase entry; optionally folds in the
/// modeled-seconds delta the caller measured across the same scope.
class ScopedPhase {
 public:
  explicit ScopedPhase(PhaseTimer& timer) noexcept;
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII host wall-clock scope over one wall timer (whole nanoseconds). A
/// null timer means "no registry attached" and costs nothing — not even a
/// clock read — so hot paths can hold a nullable Histogram* and wrap
/// unconditionally.
class ScopedWall {
 public:
  explicit ScopedWall(Histogram* timer) noexcept : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedWall() {
    if (timer_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    timer_->observe(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
  }
  ScopedWall(const ScopedWall&) = delete;
  ScopedWall& operator=(const ScopedWall&) = delete;

 private:
  Histogram* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// One run's identity plus a snapshot of its registry, serializable to the
/// "eim.metrics.v3" JSON document that eim_cli --metrics-json and the bench
/// reporter both emit. v3 extends v2 with a "wall" section carrying the
/// registry's wall timers (null when no registry is attached).
struct RunReport {
  std::string tool;   ///< producing binary ("eim_cli", "bench_fig7_ic", ...)
  std::string graph;  ///< dataset name or file path
  std::string algo;
  std::string model;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint32_t k = 0;
  double epsilon = 0.0;
  const MetricsRegistry* metrics = nullptr;  ///< not owned; may be null

  void write_json(std::ostream& out) const;
};

/// Fold a registry JSON snapshot (the write_json schema) back into `into`:
/// counters add, gauges overwrite, histograms merge their sparse buckets and
/// totals, phase timers merge. Checkpoint resume uses this to carry the
/// crashed run's accumulated metrics forward. Throws JsonParseError /
/// support::Error on a document that does not follow the schema.
void restore_registry_json(MetricsRegistry& into, std::string_view json);

}  // namespace eim::support::metrics
