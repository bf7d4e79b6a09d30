#include "eim/support/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "eim/support/json.hpp"
#include "eim/support/thread_pool.hpp"

namespace eim::support::metrics {
namespace {

TEST(Counter, AccumulatesDeltas) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, MaxUpdateKeepsHighWaterMark) {
  Gauge g;
  g.max_update(10);
  g.max_update(7);
  EXPECT_EQ(g.value(), 10u);
  g.set(3);  // plain set may lower it (last-write semantics)
  EXPECT_EQ(g.value(), 3u);
  g.max_update(5);
  EXPECT_EQ(g.value(), 5u);
}

TEST(PhaseTimer, TracksWallModeledAndEntries) {
  PhaseTimer t;
  t.add_wall(0.5);
  t.add_wall(0.25);
  t.add_modeled(0.125);
  EXPECT_DOUBLE_EQ(t.wall_seconds(), 0.75);
  EXPECT_DOUBLE_EQ(t.modeled_seconds(), 0.125);
  EXPECT_EQ(t.entries(), 2u);  // only add_wall counts an entry
}

TEST(MetricsRegistry, SameNameYieldsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.hits");
  a.add(3);
  EXPECT_EQ(reg.counter("x.hits").value(), 3u);
  EXPECT_NE(&reg.counter("x.other"), &a);
  // Counter, gauge, and phase namespaces are independent.
  reg.gauge("x.hits").set(99);
  EXPECT_EQ(reg.counter("x.hits").value(), 3u);
  EXPECT_EQ(reg.gauge("x.hits").value(), 99u);
}

TEST(MetricsRegistry, HandlesStayValidAcrossInsertions) {
  MetricsRegistry reg;
  Counter& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) (void)reg.counter("c" + std::to_string(i));
  first.add(7);
  EXPECT_EQ(reg.counter("a").value(), 7u);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndBumps) {
  MetricsRegistry reg;
  ThreadPool pool(8);
  // Every task registers-or-finds one of 4 shared counters and bumps it —
  // the mutex-guarded lookup and the lock-free bump must both hold up.
  pool.parallel_for(0, 4000, [&reg](std::size_t i) {
    reg.counter("shared." + std::to_string(i % 4)).add();
  });
  std::uint64_t total = 0;
  for (int i = 0; i < 4; ++i) total += reg.counter("shared." + std::to_string(i)).value();
  EXPECT_EQ(total, 4000u);
}

TEST(Histogram, BucketsByBitWidthAndTracksAggregates) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty

  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.max_value(), 1000u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(0)), 1u);   // bucket 0: zeros
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1)), 1u);   // [1,1]
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(2)), 2u);   // [2,3]
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1000)), 1u);
}

TEST(Histogram, BucketBoundsAreExactPowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~0ull);
  // Every value lands in a bucket whose range contains it.
  for (const std::uint64_t v : {0ull, 1ull, 5ull, 255ull, 256ull, 1ull << 40}) {
    const std::uint32_t b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(b - 1));
    }
  }
}

TEST(Histogram, QuantilesClampToObservedMax) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  // p50 reports the upper bound of the rank-50 bucket ([32,63]), p95 falls
  // in [64,127] but clamps to the true max.
  EXPECT_EQ(h.quantile(0.50), 63u);
  EXPECT_EQ(h.quantile(0.95), 100u);
  EXPECT_EQ(h.quantile(1.0), 100u);
}

TEST(Histogram, QuantileOfSingleOccupiedBucketClampsToObservedMax) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(42);  // all land in [32,63]
  // With one occupied bucket every rank resolves to it, and its upper bound
  // (63) clamps to the true maximum ever observed.
  EXPECT_EQ(h.quantile(0.001), 42u);
  EXPECT_EQ(h.quantile(0.5), 42u);
  EXPECT_EQ(h.quantile(0.999), 42u);
  EXPECT_EQ(h.quantile(1.0), 42u);
}

TEST(Histogram, QuantilesAreMonotoneOnPowerLawData) {
  Histogram h;
  // Zipf-flavored load: value v recorded roughly 4096/v times — the shape
  // log2 bucketing exists for (RRR set sizes, publish latencies).
  std::uint64_t n = 0;
  for (std::uint64_t v = 1; v <= 4096; ++v) {
    for (std::uint64_t rep = 0; rep < 4096 / v; ++rep) {
      h.observe(v);
      ++n;
    }
  }
  EXPECT_EQ(h.count(), n);
  // Property: quantiles never decrease in q and never exceed the max.
  std::uint64_t previous = 0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t value = h.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    EXPECT_LE(value, h.max_value()) << "q=" << q;
    previous = value;
  }
  EXPECT_EQ(h.quantile(1.0), 4096u);
}

TEST(Histogram, AllZeroObservationsReportZeroEverywhere) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.bucket_count(0), 100u);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
  }
}

TEST(Histogram, U64BoundaryValuesBucketAndClampCorrectly) {
  Histogram h;
  h.observe((std::uint64_t{1} << 63) - 1);  // top of bucket 63
  h.observe(std::uint64_t{1} << 63);        // bottom of bucket 64
  h.observe(~0ull);                          // absolute top
  EXPECT_EQ(Histogram::bucket_of((std::uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(h.bucket_count(63), 1u);
  EXPECT_EQ(h.bucket_count(64), 2u);
  EXPECT_EQ(h.max_value(), ~0ull);
  // quantile(1.0) clamps to the observed max even though bucket 64's
  // nominal upper bound equals it anyway.
  EXPECT_EQ(h.quantile(1.0), ~0ull);
  // The running sum is a u64 and wraps modulo 2^64 on overflow; count stays
  // exact, which is what the reports rely on. (2^63-1) + 2^63 + (2^64-1)
  // = 2^65 - 2 = 2^64 - 2 (mod 2^64).
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), ~0ull - 1);
}

TEST(Histogram, ObserveDurationRecordsWholeNanoseconds) {
  Histogram h;
  h.observe_duration(1e-9);   // 1 ns
  h.observe_duration(2.5e-9); // rounds to 3 ns
  h.observe_duration(0.0);    // clamped to the zero bucket
  h.observe_duration(-1.0);   // negative clamps too
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 4u);
  EXPECT_EQ(h.max_value(), 3u);
  EXPECT_EQ(h.bucket_count(0), 2u);
}

TEST(Histogram, ConcurrentObserveSumsExactly) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stress");
  ThreadPool pool(8);
  // 8000 observations racing from the pool: count and sum are exact because
  // every update is a relaxed atomic RMW; the per-bucket tallies must also
  // total the observation count.
  pool.parallel_for(0, 8000, [&h](std::size_t i) { h.observe(i % 97); });
  EXPECT_EQ(h.count(), 8000u);
  std::uint64_t expected_sum = 0;
  for (std::size_t i = 0; i < 8000; ++i) expected_sum += i % 97;
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(h.max_value(), 96u);
  std::uint64_t bucket_total = 0;
  for (std::uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
    bucket_total += h.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, 8000u);
}

TEST(MetricsRegistry, WriteJsonEmitsHistogramSection) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("rrr.set_size");
  h.observe(0);
  h.observe(5);
  h.observe(5);

  std::ostringstream out;
  JsonWriter w(out);
  reg.write_json(w);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"histograms\":{\"rrr.set_size\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\":5"), std::string::npos) << json;
  // rank(0.5 * 3) = 1 falls in the zeros bucket; rank 2 falls in [4,7],
  // clamped to the observed max.
  EXPECT_NE(json.find("\"p50\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":5"), std::string::npos) << json;
  // Sparse buckets: zeros bucket (le 0) and the [4,7] bucket (le 7) only.
  EXPECT_NE(json.find("\"buckets\":[{\"le\":0,\"count\":1},{\"le\":7,\"count\":2}]"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistry, WriteJsonEmitsSortedSnapshot) {
  MetricsRegistry reg;
  reg.counter("b.second").add(2);
  reg.counter("a.first").add(1);
  reg.gauge("peak").set(512);
  reg.phase("sample").add_wall(1.5);
  reg.phase("sample").add_modeled(0.5);

  std::ostringstream out;
  JsonWriter w(out);
  reg.write_json(w);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"counters\":{\"a.first\":1,\"b.second\":2}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"peak\":512}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"sample\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_seconds\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"modeled_seconds\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"entries\":1"), std::string::npos) << json;
}

TEST(ScopedPhase, AddsOneEntryWithNonNegativeWall) {
  PhaseTimer t;
  {
    const ScopedPhase scope(t);
  }
  EXPECT_EQ(t.entries(), 1u);
  EXPECT_GE(t.wall_seconds(), 0.0);
}

TEST(ScopedWall, NullTimerIsInert) {
  // The detached path must not crash — and is the permanent hot-path cost.
  const ScopedWall scope(nullptr);
}

TEST(ScopedWall, RecordsOneEntryPerScope) {
  Histogram timer;
  {
    const ScopedWall scope(&timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(timer.count(), 1u);
  // steady_clock across a 1 ms sleep, in whole nanoseconds: at least that
  // long, finite.
  EXPECT_GE(timer.sum(), 500'000u);
  EXPECT_LT(timer.sum(), 10'000'000'000u);
}

TEST(MetricsRegistry, WallInstrumentsAreTheirOwnNamespace) {
  MetricsRegistry reg;
  Histogram& a = reg.wall_timer("sampler.wave");
  EXPECT_EQ(&a, &reg.wall_timer("sampler.wave"));
  EXPECT_NE(&a, &reg.wall_timer("rng.refill"));
  // A modeled histogram of the same name is a different instrument.
  EXPECT_NE(&a, &reg.histogram("sampler.wave"));
}

TEST(MetricsRegistry, WallHandlesStayValidAcrossInsertionsAndConcurrentRecords) {
  MetricsRegistry reg;
  Histogram& early = reg.wall_timer("early");
  for (int i = 0; i < 100; ++i) (void)reg.wall_timer("filler-" + std::to_string(i));
  early.observe(7);
  EXPECT_EQ(reg.wall_timer("early").count(), 1u);

  // Lookups race with records from pool workers; the histogram is atomic
  // and the map only ever grows under the registry mutex.
  ThreadPool pool(4);
  pool.parallel_for(0, 4000, [&reg](std::size_t i) {
    reg.wall_timer(i % 2 == 0 ? "even" : "odd").observe(i);
  });
  EXPECT_EQ(reg.wall_timer("even").count() + reg.wall_timer("odd").count(), 4000u);
}

TEST(MetricsRegistry, WriteWallJsonSortsTimersAndCarriesPercentiles) {
  MetricsRegistry reg;
  reg.wall_timer("zz.last").observe(10);
  reg.wall_timer("aa.first").observe(20);
  reg.wall_timer("aa.first").observe(40);

  std::ostringstream out;
  JsonWriter w(out);
  reg.write_wall_json(w);
  const std::string json = out.str();

  const auto first = json.find("\"aa.first\":{");
  const auto last = json.find("\"zz.last\":{");
  ASSERT_NE(first, std::string::npos) << json;
  ASSERT_NE(last, std::string::npos) << json;
  EXPECT_LT(first, last);
  EXPECT_NE(json.find("\"entries\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95_ns\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_ns\":40"), std::string::npos) << json;

  // The section must parse as standalone JSON.
  const JsonValue doc = parse_json(json);
  EXPECT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("aa.first").at("total_seconds").as_double(), 60e-9);
}

TEST(MetricsRegistry, WallInstrumentsStayOutOfWriteJson) {
  // Checkpoint snapshots and bench-cell metrics objects are write_json
  // output: host wall timers must not leak into them.
  MetricsRegistry reg;
  reg.counter("sampler.waves").add();
  reg.wall_timer("sampler.wave").observe(1000);
  std::ostringstream out;
  JsonWriter w(out);
  reg.write_json(w);
  EXPECT_EQ(out.str().find("sampler.wave\""), std::string::npos) << out.str();
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.members().size(), 4u);  // counters, gauges, histograms, phases
}

TEST(RunReport, WritesSchemaEnvelope) {
  MetricsRegistry reg;
  reg.counter("rrr.commit_rejects").add(5);

  RunReport report;
  report.tool = "test";
  report.graph = "wiki-Vote";
  report.algo = "eim";
  report.model = "IC";
  report.vertices = 4096;
  report.edges = 47099;
  report.k = 25;
  report.epsilon = 0.13;
  report.metrics = &reg;

  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\":\"eim.metrics.v3\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tool\":\"test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"graph\":\"wiki-Vote\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"k\":25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rrr.commit_rejects\":5"), std::string::npos) << json;
  // v3 adds the wall section: the registry's wall timers, here none.
  EXPECT_NE(json.find("\"wall\":{}"), std::string::npos) << json;
}

TEST(RunReport, NullRegistrySerializesAsNull) {
  RunReport report;
  report.tool = "test";
  std::ostringstream out;
  report.write_json(out);
  EXPECT_NE(out.str().find("\"metrics\":null"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"wall\":null"), std::string::npos) << out.str();
}

TEST(RunReport, RegistryWallSectionSerializesUnderWallKey) {
  MetricsRegistry reg;
  reg.wall_timer("sampler.wave").observe(1000);
  reg.wall_timer("sampler.wave").observe(3000);
  reg.wall_timer("rng.refill").observe(500);

  RunReport report;
  report.tool = "test";
  report.metrics = &reg;
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"wall\":{"), std::string::npos) << json;
  // Sorted by name: rng.refill before sampler.wave.
  const auto rng_pos = json.find("\"rng.refill\":{");
  const auto wave_pos = json.find("\"sampler.wave\":{");
  ASSERT_NE(rng_pos, std::string::npos) << json;
  ASSERT_NE(wave_pos, std::string::npos) << json;
  EXPECT_LT(rng_pos, wave_pos);
  EXPECT_NE(json.find("\"entries\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace eim::support::metrics
