// Wall-clock span recorder for the traced run.
//
// The benchmark records spans from its own files, around the calls it makes
// into each layer's public API: a span has a name, a start and end on the
// steady clock, the span that was open when it began (its parent), and the
// solve it belongs to. Spans stay in memory and are written once, at exit,
// as Chrome trace-event JSON (open in ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace eim::benchmark {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     ///< index into spans(), -1 for a root
  std::uint32_t solve = 0;  ///< solve id; the build index under a "setup" root
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Open a span under the innermost open span; returns its index.
  int begin(std::string name, std::uint32_t solve);
  /// Close span `id`, which must be the innermost open span.
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Span duration minus the part of its interval its children cover.
  [[nodiscard]] double self_seconds(int id) const;

  /// Sum of self time over every span called `name` in solve `solve`.
  [[nodiscard]] double self_seconds(const std::string& name, std::uint32_t solve) const;

  void write_chrome_trace(std::ostream& out) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint32_t solve)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(std::move(name), solve) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace eim::benchmark
