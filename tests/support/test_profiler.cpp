#include "eim/support/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>

namespace eim::support::profiler {
namespace {

#if EIM_PROFILER_SUPPORTED

TEST(SamplingProfiler, ReportsSupportedOnThisPlatform) {
  EXPECT_TRUE(SamplingProfiler::supported());
}

TEST(SamplingProfiler, CapturesStacksFromCpuBurnAndWritesFolded) {
  SamplingProfiler prof({.hz = 997, .max_samples = 4096});
  ASSERT_TRUE(prof.start());
  EXPECT_TRUE(prof.running());

  // Burn CPU until samples arrive (ITIMER_PROF counts consumed CPU time, so
  // sleeping would never fire it). Bounded by wall time as a safety net.
  volatile std::uint64_t sink = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (prof.num_samples() < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) sink = sink * 1664525u + 1013904223u;
  }
  prof.stop();
  EXPECT_FALSE(prof.running());
  ASSERT_GE(prof.num_samples(), 5u);

  std::ostringstream out;
  prof.write_folded(out);
  const std::string folded = out.str();
  ASSERT_FALSE(folded.empty());

  // Every line is "frame;frame;... count" with a positive trailing count.
  std::istringstream lines(folded);
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::uint64_t count = std::stoull(line.substr(space + 1));
    EXPECT_GT(count, 0u) << line;
    total += count;
  }
  EXPECT_EQ(total, prof.num_samples() );
}

TEST(SamplingProfiler, SecondConcurrentStartIsRefused) {
  SamplingProfiler first({.hz = 97, .max_samples = 64});
  SamplingProfiler second({.hz = 97, .max_samples = 64});
  ASSERT_TRUE(first.start());
  EXPECT_FALSE(second.start());  // SIGPROF disposition is process-global
  first.stop();
  // Once the first releases the slot, a fresh start succeeds.
  EXPECT_TRUE(second.start());
  second.stop();
}

TEST(SamplingProfiler, StopIsIdempotent) {
  SamplingProfiler prof({.hz = 97, .max_samples = 64});
  ASSERT_TRUE(prof.start());
  prof.stop();
  prof.stop();  // second stop must be a no-op
  EXPECT_FALSE(prof.running());
}

#else  // !EIM_PROFILER_SUPPORTED

TEST(SamplingProfiler, UnsupportedPlatformRefusesToStart) {
  EXPECT_FALSE(SamplingProfiler::supported());
  SamplingProfiler prof({});
  EXPECT_FALSE(prof.start());
  EXPECT_FALSE(prof.running());
  std::ostringstream out;
  prof.write_folded(out);
  EXPECT_TRUE(out.str().empty());
}

#endif  // EIM_PROFILER_SUPPORTED

}  // namespace
}  // namespace eim::support::profiler
