#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "eim/support/error.hpp"
#include "eim/support/json.hpp"

namespace eim::benchmark {

int SpanRecorder::begin(std::string name, std::uint32_t solve) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now(), 0.0, open_.empty() ? -1 : open_.back(),
                        solve});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  EIM_CHECK_MSG(!open_.empty() && open_.back() == id, "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

double SpanRecorder::self_seconds(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  // Children of one parent never overlap (spans come from one thread),
  // but a merge keeps the definition honest if that ever changes.
  std::vector<std::pair<double, double>> children;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) children.emplace_back(spans_[i].start, spans_[i].end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [start, end] : children) {
    const double lo = std::max(start, reach);
    const double hi = std::min(end, span.end);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, end);
  }
  return (span.end - span.start) - covered;
}

double SpanRecorder::self_seconds(const std::string& name, std::uint32_t solve) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].solve == solve && spans_[i].name == name) {
      total += self_seconds(static_cast<int>(i));
    }
  }
  return total;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  support::JsonWriter w(out);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.begin_array("traceEvents");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("ts", s.start * 1e6)
        .field("dur", (s.end - s.start) * 1e6)
        .field("pid", std::uint64_t{1})
        .field("tid", std::uint64_t{1});
    w.key("args")
        .begin_object()
        .field("id", static_cast<std::uint64_t>(i))
        .field("parent", static_cast<std::int64_t>(s.parent))
        .field("solve", std::uint64_t{s.solve})
        .field("self_us", self_seconds(static_cast<int>(i)) * 1e6)
        .end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace eim::benchmark
