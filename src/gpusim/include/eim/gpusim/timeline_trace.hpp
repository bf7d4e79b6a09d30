// Bridge from the modeled-time ledger to the trace recorder.
//
// Folds a DeviceTimeline's segments into a TraceRecorder as leaf spans on
// the device's pid, preserving ledger order so the exported durations sum
// to total_seconds() in the exact same floating-point order the timeline
// accumulated them. Called at the end of a run (the segments' [start,
// start+seconds) intervals are already final); the enclosing orchestration
// spans recorded live during the run parent them by containment.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "eim/gpusim/device.hpp"
#include "eim/gpusim/timeline.hpp"
#include "eim/support/trace.hpp"

namespace eim::gpusim {

inline support::trace::SpanCategory trace_category(SegmentKind kind) noexcept {
  switch (kind) {
    case SegmentKind::Kernel: return support::trace::SpanCategory::Kernel;
    case SegmentKind::Transfer: return support::trace::SpanCategory::Transfer;
    case SegmentKind::Allocation: return support::trace::SpanCategory::Allocation;
    case SegmentKind::Backoff: return support::trace::SpanCategory::Backoff;
  }
  return support::trace::SpanCategory::Kernel;
}

inline void record_timeline_spans(support::trace::TraceRecorder& trace,
                                  std::uint32_t pid, const DeviceTimeline& timeline) {
  for (const TimelineSegment& seg : timeline.segments()) {
    trace.complete_span(pid, trace_category(seg.kind), seg.label, seg.start,
                        seg.seconds);
  }
}

/// Record instant `name` on `device`'s trace track at its modeled clock; a
/// null recorder or an untracked device records nothing.
inline void mark_instant(support::trace::TraceRecorder* trace, const Device& device,
                         std::string name, std::string detail) {
  if (trace == nullptr) return;
  if (const auto pid = trace->pid_of(&device); pid.has_value()) {
    trace->instant(*pid, std::move(name), std::move(detail),
                   device.timeline().total_seconds());
  }
}

}  // namespace eim::gpusim
