// End-to-end properties of the span trace a pipeline run records: hierarchy,
// non-overlap of device leaves, exact agreement with the timeline ledger, and
// determinism of the Chrome export (see docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/imm/imm.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using support::trace::SpanCategory;
using support::trace::TraceRecorder;
using support::trace::TraceSpan;
using support::trace::is_device_leaf;

Graph make_graph() {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(500, 3, 0.3, 7));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 8;
  p.epsilon = 0.3;
  return p;
}

EimOptions traced_options(TraceRecorder* trace) {
  EimOptions o;
  o.sampler_blocks = 16;
  o.trace = trace;
  return o;
}

/// Run the single-device pipeline with a recorder attached.
std::vector<TraceSpan> traced_run(TraceRecorder& rec, double* total_seconds = nullptr) {
  gpusim::Device device(gpusim::make_benchmark_device(256));
  const Graph g = make_graph();
  const EimResult r = run_eim(device, g, DiffusionModel::IndependentCascade,
                              make_params(), traced_options(&rec));
  EXPECT_EQ(r.seeds.size(), 8u);
  if (total_seconds != nullptr) *total_seconds = device.timeline().total_seconds();
  return rec.spans();
}

TEST(TracePipeline, RecordsFullHierarchy) {
  TraceRecorder rec;
  const std::vector<TraceSpan> spans = traced_run(rec);

  std::map<SpanCategory, int> by_cat;
  for (const TraceSpan& s : spans) ++by_cat[s.category];
  EXPECT_GE(by_cat[SpanCategory::Phase], 2);  // sample + select at least
  EXPECT_GE(by_cat[SpanCategory::Round], 1);
  EXPECT_GE(by_cat[SpanCategory::Wave], 1);
  EXPECT_GE(by_cat[SpanCategory::Kernel], 1);
  EXPECT_GE(by_cat[SpanCategory::Transfer], 1);
  EXPECT_GE(by_cat[SpanCategory::Allocation], 1);

  // Every parent reference resolves to an earlier span, and the categories
  // only nest downward (phase > round > wave > leaves).
  std::map<std::uint64_t, const TraceSpan*> by_seq;
  for (const TraceSpan& s : spans) by_seq[s.sequence] = &s;
  for (const TraceSpan& s : spans) {
    if (s.parent < 0) continue;
    const auto it = by_seq.find(static_cast<std::uint64_t>(s.parent));
    ASSERT_NE(it, by_seq.end());
    const TraceSpan& parent = *it->second;
    EXPECT_LT(parent.sequence, s.sequence);
    EXPECT_LT(static_cast<int>(parent.category), static_cast<int>(s.category));
  }
}

TEST(TracePipeline, DeviceLeavesTileTheTimelineExactly) {
  TraceRecorder rec;
  double total_seconds = 0.0;
  const std::vector<TraceSpan> spans = traced_run(rec, &total_seconds);

  // Leaves are serial on the modeled device clock: sorted by start, each
  // begins exactly where the previous ended, starting from zero...
  std::vector<const TraceSpan*> leaves;
  for (const TraceSpan& s : spans) {
    if (is_device_leaf(s.category)) leaves.push_back(&s);
  }
  ASSERT_FALSE(leaves.empty());
  // The trace records leaves in ledger order already (sequence order).
  double clock = 0.0;
  double sum = 0.0;
  for (const TraceSpan* leaf : leaves) {
    EXPECT_DOUBLE_EQ(leaf->modeled_start, clock);
    clock = leaf->modeled_start + leaf->modeled_seconds;
    sum += leaf->modeled_seconds;
  }
  // ...and, folded in that same order, their durations reproduce
  // DeviceTimeline::total_seconds() bit-for-bit, not just approximately.
  EXPECT_EQ(sum, total_seconds);
}

TEST(TracePipeline, HostSpansContainTheirChildren) {
  TraceRecorder rec;
  const std::vector<TraceSpan> spans = traced_run(rec);

  std::map<std::uint64_t, const TraceSpan*> by_seq;
  for (const TraceSpan& s : spans) by_seq[s.sequence] = &s;
  for (const TraceSpan& s : spans) {
    if (s.parent < 0) continue;
    const TraceSpan& parent = *by_seq.at(static_cast<std::uint64_t>(s.parent));
    // Child interval sits inside the parent interval on the modeled clock
    // (both ends — parents close after their last child).
    EXPECT_GE(s.modeled_start, parent.modeled_start);
    EXPECT_LE(s.modeled_start + s.modeled_seconds,
              parent.modeled_start + parent.modeled_seconds);
  }
}

TEST(TracePipeline, SameSeedRunsExportBitIdenticalTraces) {
  TraceRecorder rec1;
  TraceRecorder rec2;
  (void)traced_run(rec1);
  (void)traced_run(rec2);

  std::ostringstream out1;
  std::ostringstream out2;
  rec1.write_chrome_trace(out1);
  rec2.write_chrome_trace(out2);
  EXPECT_EQ(out1.str(), out2.str());
  EXPECT_FALSE(out1.str().empty());
}

TEST(TracePipeline, NullTraceDoesNotChangeSeeds) {
  TraceRecorder rec;
  gpusim::Device d1(gpusim::make_benchmark_device(256));
  gpusim::Device d2(gpusim::make_benchmark_device(256));
  const Graph g = make_graph();
  const EimResult traced = run_eim(d1, g, DiffusionModel::IndependentCascade,
                                   make_params(), traced_options(&rec));
  const EimResult plain = run_eim(d2, g, DiffusionModel::IndependentCascade,
                                  make_params(), traced_options(nullptr));
  EXPECT_EQ(traced.seeds, plain.seeds);
  EXPECT_EQ(traced.num_sets, plain.num_sets);
  EXPECT_EQ(traced.device_seconds, plain.device_seconds);
}

TEST(TracePipeline, MultiGpuTracksEveryDevice) {
  TraceRecorder rec;
  const Graph g = make_graph();
  gpusim::Device d0(gpusim::make_benchmark_device(256));
  gpusim::Device d1(gpusim::make_benchmark_device(256));

  EimOptions o;
  o.sampler_blocks = 16;
  o.trace = &rec;
  const EimResult r = run_eim_multi(
      {&d0, &d1}, g, DiffusionModel::IndependentCascade, make_params(), o);
  EXPECT_EQ(r.seeds.size(), 8u);

  ASSERT_TRUE(rec.pid_of(&d0).has_value());
  ASSERT_TRUE(rec.pid_of(&d1).has_value());
  const std::uint32_t pid0 = *rec.pid_of(&d0);
  const std::uint32_t pid1 = *rec.pid_of(&d1);
  EXPECT_NE(pid0, pid1);

  // Each device's leaves tile its own ledger exactly, independently.
  const std::vector<gpusim::Device*> devices = {&d0, &d1};
  const std::vector<std::uint32_t> pids = {pid0, pid1};
  for (std::size_t i = 0; i < devices.size(); ++i) {
    double sum = 0.0;
    bool any = false;
    for (const TraceSpan& s : rec.spans()) {
      if (s.pid == pids[i] && is_device_leaf(s.category)) {
        sum += s.modeled_seconds;
        any = true;
      }
    }
    EXPECT_TRUE(any) << "device " << i << " recorded no leaf spans";
    EXPECT_EQ(sum, devices[i]->timeline().total_seconds()) << "device " << i;
  }
}

}  // namespace
}  // namespace eim::eim_impl
