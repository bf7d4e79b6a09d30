// Wall-clock profiling: a signal-based sampling profiler.
//
// SamplingProfiler answers "where does host wall time go?" without touching
// the measured code: ITIMER_PROF fires SIGPROF on whichever thread is
// burning CPU, the handler captures raw frame pointers into a preallocated
// ring, and symbolization happens offline in write_folded(). The
// folded-stack output feeds flamegraph tooling and tools/prof_report.
//
// Its complement, "how long does one named hot scope take?", is answered by
// explicit instrumentation that lives in the metrics registry: wall timers
// (MetricsRegistry::wall_timer, metrics::ScopedWall) record whenever a
// registry is attached, and RunReport serializes them under the "wall"
// section of the eim.metrics.v3 schema. This header arms only the sampler.
//
// Signal-path constraints (docs/OBSERVABILITY.md "Profiling"): the SIGPROF
// handler performs no allocation, takes no locks, and calls only
// backtrace() (primed once in start() so libgcc is already loaded). Slots
// are claimed with one relaxed fetch_add; a full ring drops the sample and
// counts it instead of blocking.
//
// Platform gating: sampling requires Linux + <execinfo.h>. Elsewhere the
// class compiles but supported() is false and start() refuses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>

#if defined(__linux__) && __has_include(<execinfo.h>)
#define EIM_PROFILER_SUPPORTED 1
#else
#define EIM_PROFILER_SUPPORTED 0
#endif

namespace eim::support::profiler {

/// Signal-based sampling profiler. One instance may be active at a time
/// (the SIGPROF disposition is process-global); a second concurrent
/// start() returns false.
class SamplingProfiler {
 public:
  struct Options {
    std::uint32_t hz = 97;  ///< SIGPROF rate against consumed CPU time.
    std::size_t max_samples = 1u << 15;  ///< Ring capacity; later samples drop.
  };

  /// True when this build/platform can capture stacks at all.
  [[nodiscard]] static bool supported() noexcept;

  explicit SamplingProfiler(Options options);
  ~SamplingProfiler();
  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// Install the SIGPROF handler and arm ITIMER_PROF. Returns false when
  /// unsupported or when another instance is already active.
  bool start();
  /// Disarm the timer and restore the previous SIGPROF disposition.
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Samples captured so far (excludes drops).
  [[nodiscard]] std::size_t num_samples() const noexcept;
  /// Samples lost because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Symbolize the captured ring and write folded-stack ("collapsed")
  /// lines: "outermost;...;leaf <count>\n", aggregated and sorted. Frames
  /// that fail dladdr render as raw "0x..." addresses; flamegraph tooling
  /// and prof_report both accept that. Call after stop().
  void write_folded(std::ostream& out) const;

  /// Max frames kept per sample; deeper stacks truncate at the root end.
  static constexpr std::size_t kMaxFrames = 64;

 private:
  static void handle_signal(int);

  Options options_;
  bool running_ = false;
  // Flat preallocated ring: slot s owns frames_[s*kMaxFrames .. +kMaxFrames).
  std::unique_ptr<void*[]> frames_;
  std::unique_ptr<std::atomic<std::int32_t>[]> depths_;
  std::atomic<std::size_t> next_slot_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace eim::support::profiler
