#include "eim/support/trace.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eim/support/json.hpp"

namespace eim::support::trace {
namespace {

TEST(TraceRecorder, RegisterProcessAssignsDensePids) {
  TraceRecorder rec;
  int key_a = 0;
  int key_b = 0;
  EXPECT_EQ(rec.register_process("device 0", &key_a), 0u);
  EXPECT_EQ(rec.register_process("device 1", &key_b), 1u);
  EXPECT_EQ(rec.pid_of(&key_a), std::optional<std::uint32_t>{0u});
  EXPECT_EQ(rec.pid_of(&key_b), std::optional<std::uint32_t>{1u});
  EXPECT_EQ(rec.pid_of(&rec), std::nullopt);
  // Re-registering a known key re-uses (and renames) its pid.
  EXPECT_EQ(rec.register_process("device 0 (renamed)", &key_a), 0u);
}

TEST(TraceRecorder, SpansNestViaPerThreadStack) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("dev");
  const std::uint64_t outer = rec.begin_span(pid, SpanCategory::Phase, "sample", 0.0);
  const std::uint64_t inner = rec.begin_span(pid, SpanCategory::Round, "round 0", 0.0);
  rec.end_span(inner, 1.0, 0.5);
  rec.end_span(outer, 2.0);

  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].sequence, outer);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_DOUBLE_EQ(spans[0].modeled_seconds, 2.0);
  EXPECT_EQ(spans[1].sequence, inner);
  EXPECT_EQ(spans[1].parent, static_cast<std::int64_t>(outer));
  EXPECT_DOUBLE_EQ(spans[1].modeled_seconds, 1.0);
  EXPECT_DOUBLE_EQ(spans[1].wall_seconds, 0.5);
}

TEST(TraceRecorder, CompleteSpanAttachesToInnermostOpenSpan) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("dev");
  const std::uint64_t wave = rec.begin_span(pid, SpanCategory::Wave, "wave 0", 0.0);
  rec.complete_span(pid, SpanCategory::Kernel, "sample_kernel", 0.0, 0.25);
  rec.end_span(wave, 0.25);
  rec.complete_span(pid, SpanCategory::Transfer, "flush", 0.25, 0.01);

  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, static_cast<std::int64_t>(wave));
  EXPECT_EQ(spans[2].parent, -1);  // no open span left -> root
  EXPECT_DOUBLE_EQ(spans[2].modeled_start, 0.25);
}

TEST(TraceRecorder, SequenceIdsAreSharedBetweenSpansAndInstants) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("dev");
  const std::uint64_t s0 = rec.begin_span(pid, SpanCategory::Phase, "p", 0.0);
  rec.instant(pid, "domain.lost", "respilled=3", 0.5);
  rec.end_span(s0, 1.0);
  rec.complete_span(pid, SpanCategory::Kernel, "k", 0.0, 1.0);

  ASSERT_EQ(rec.instants().size(), 1u);
  // One global counter orders spans and instants together, so the instant
  // consumed sequence 1 and the later leaf got 2.
  EXPECT_EQ(rec.instants()[0].sequence, 1u);
  EXPECT_EQ(rec.spans()[1].sequence, 2u);
}

TEST(TraceRecorder, ThreadsGetDistinctTidsAndIndependentStacks) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("dev");
  const std::uint64_t outer = rec.begin_span(pid, SpanCategory::Phase, "main", 0.0);
  std::thread worker([&rec, pid] {
    const std::uint64_t s = rec.begin_span(pid, SpanCategory::Wave, "w", 0.0);
    rec.end_span(s, 1.0);
  });
  worker.join();
  rec.end_span(outer, 2.0);

  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, 0u);       // first thread to record
  EXPECT_EQ(spans[1].tid, 1u);
  EXPECT_EQ(spans[1].parent, -1);    // other thread's open span is not a parent
}

TEST(ScopedSpan, NullRecorderIsInert) {
  ScopedSpan span(nullptr, 0, SpanCategory::Phase, "noop", 0.0);
  span.end(1.0);  // must not crash
}

TEST(ScopedSpan, ClosesZeroLengthOnUnwind) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("dev");
  try {
    ScopedSpan span(&rec, pid, SpanCategory::Phase, "doomed", 3.0);
    throw std::runtime_error("device fault");
  } catch (const std::runtime_error&) {
  }
  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 1u);
  // The unwound span pins the point of death on the modeled clock.
  EXPECT_DOUBLE_EQ(spans[0].modeled_start, 3.0);
  EXPECT_DOUBLE_EQ(spans[0].modeled_seconds, 0.0);
  EXPECT_GE(spans[0].wall_seconds, 0.0);
}

TEST(ScopedSpan, EndIsIdempotent) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("dev");
  {
    ScopedSpan span(&rec, pid, SpanCategory::Round, "r", 1.0);
    span.end(2.0);
    span.end(99.0);  // ignored
  }
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.spans()[0].modeled_seconds, 1.0);
}

TEST(ChromeExport, EmitsParsableEventsWithMetadata) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("device 0");
  const std::uint64_t phase = rec.begin_span(pid, SpanCategory::Phase, "sample", 0.0);
  rec.complete_span(pid, SpanCategory::Kernel, "k0", 0.0, 0.001);
  rec.end_span(phase, 0.001);
  rec.instant(pid, "oom.degrade", "shortfall_bytes=64", 0.001);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const JsonValue doc = parse_json(out.str());

  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").items();
  // 3 metadata (process_name + process_sort_index + thread_name) + 2 spans
  // + 1 instant.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "device 0");
  EXPECT_EQ(events[1].at("name").as_string(), "process_sort_index");
  EXPECT_EQ(events[1].at("args").at("sort_index").as_int(), 0);
  EXPECT_EQ(events[2].at("args").at("name").as_string(), "host-worker-0");

  const JsonValue& span = events[3];
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_EQ(span.at("cat").as_string(), "phase");
  EXPECT_EQ(span.at("pid").as_int(), 0);
  // ts/dur are microseconds on the modeled clock; args keeps raw seconds.
  EXPECT_DOUBLE_EQ(events[4].at("dur").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(events[4].at("args").at("seconds").as_double(), 0.001);
  EXPECT_EQ(events[4].at("args").at("parent").as_int(),
            static_cast<std::int64_t>(phase));

  const JsonValue& inst = events[5];
  EXPECT_EQ(inst.at("ph").as_string(), "i");
  EXPECT_EQ(inst.at("s").as_string(), "p");
  EXPECT_EQ(inst.at("cat").as_string(), "fault");
  EXPECT_EQ(inst.at("args").at("detail").as_string(), "shortfall_bytes=64");
}

TEST(ChromeExport, RoundTripsThroughParserStructurally) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("device 0");
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t s =
        rec.begin_span(pid, SpanCategory::Wave, "wave " + std::to_string(i),
                       static_cast<double>(i) * 0.125);
    rec.complete_span(pid, SpanCategory::Kernel, "k", static_cast<double>(i) * 0.125,
                      0.0625);
    rec.end_span(s, static_cast<double>(i) * 0.125 + 0.125);
  }
  std::ostringstream first;
  rec.write_chrome_trace(first);
  const JsonValue doc = parse_json(first.str());

  // Golden round-trip: parse -> re-serialize via support::json -> parse must
  // be structurally identical, proving the export uses only representable
  // JSON (no NaN, no lossy doubles at this precision).
  std::ostringstream second;
  JsonWriter w(second);
  doc.write(w);
  EXPECT_TRUE(parse_json(second.str()).structurally_equal(doc));

  // And a second export of the same recorder is byte-identical.
  std::ostringstream again;
  rec.write_chrome_trace(again);
  EXPECT_EQ(first.str(), again.str());
}

TEST(ChromeExport, ToStringCoversEveryCategory) {
  EXPECT_STREQ(to_string(SpanCategory::Phase), "phase");
  EXPECT_STREQ(to_string(SpanCategory::Round), "round");
  EXPECT_STREQ(to_string(SpanCategory::Wave), "wave");
  EXPECT_STREQ(to_string(SpanCategory::Kernel), "kernel");
  EXPECT_STREQ(to_string(SpanCategory::Transfer), "transfer");
  EXPECT_STREQ(to_string(SpanCategory::Allocation), "allocation");
  EXPECT_STREQ(to_string(SpanCategory::Backoff), "backoff");
  EXPECT_STREQ(to_string(SpanCategory::Collective), "collective");
  EXPECT_FALSE(is_device_leaf(SpanCategory::Phase));
  EXPECT_TRUE(is_device_leaf(SpanCategory::Backoff));
  // Collective must stay non-leaf: the cluster timeline records its own
  // leaf segments, and a leaf Collective would double-count the per-pid
  // duration invariant the pipeline trace test checks.
  EXPECT_FALSE(is_device_leaf(SpanCategory::Collective));
}

TEST(TraceRecorder, FlowEndpointsShareIdsAndSequenceCounter) {
  TraceRecorder rec;
  const std::uint32_t node = rec.register_process("node 0");
  const std::uint32_t cluster = rec.register_process("cluster");
  const std::uint64_t id = rec.new_flow_id();
  EXPECT_EQ(rec.new_flow_id(), id + 1);  // plain deterministic counter
  rec.flow_start(node, id, "count allreduce", 1.0);
  rec.flow_end(cluster, id, "count allreduce", 1.5);

  const std::vector<TraceFlow> flows = rec.flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_TRUE(flows[0].start);
  EXPECT_FALSE(flows[1].start);
  EXPECT_EQ(flows[0].flow_id, flows[1].flow_id);
  EXPECT_EQ(flows[0].pid, node);
  EXPECT_EQ(flows[1].pid, cluster);
  // Flows share the global sequence counter with spans and instants.
  EXPECT_EQ(flows[1].sequence, flows[0].sequence + 1);
}

TEST(ChromeExport, FlowEventsEmitStartAndBoundFinish) {
  TraceRecorder rec;
  const std::uint32_t pid = rec.register_process("node 0");
  const std::uint64_t id = rec.new_flow_id();
  rec.flow_start(pid, id, "network broadcast", 0.25);
  rec.flow_end(pid, id, "network broadcast", 0.75);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const JsonValue doc = parse_json(out.str());
  const auto& events = doc.at("traceEvents").items();
  // 3 metadata + 2 flow endpoints.
  ASSERT_EQ(events.size(), 5u);

  const JsonValue& start = events[3];
  EXPECT_EQ(start.at("ph").as_string(), "s");
  EXPECT_EQ(start.at("cat").as_string(), "flow");
  EXPECT_EQ(start.at("id").as_int(), static_cast<std::int64_t>(id));
  EXPECT_EQ(start.find("bp"), nullptr);

  const JsonValue& finish = events[4];
  EXPECT_EQ(finish.at("ph").as_string(), "f");
  // "bp":"e" binds the arrowhead to the enclosing slice.
  EXPECT_EQ(finish.at("bp").as_string(), "e");
  EXPECT_EQ(finish.at("id").as_int(), static_cast<std::int64_t>(id));
  EXPECT_EQ(finish.at("name").as_string(), start.at("name").as_string());
}

}  // namespace
}  // namespace eim::support::trace
