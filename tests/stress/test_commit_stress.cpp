// Concurrency stress tests for the RRR-commit path (ctest label: stress).
//
// Commits follow the slot-order contract in docs/OBSERVABILITY.md: a serial
// admit() decides which slots of a run fit and gives each its offset (the
// exclusive scan of the lengths), then many threads publish the admitted
// slices at once. These tests drive that protocol the way the samplers do
// — admit a run, publish it from many threads, regrow, re-admit the
// rejected tail — with short sets, so neighbouring slices share packed
// words on almost every boundary, and assert:
//
//   (a) every committed set decodes to exactly what was published (no slice
//       overlays another, which under log encoding would OR two sets' bits
//       together and violate store_release's "slot holds zero"
//       precondition);
//   (b) the element cursor equals the admitted footprint and never exceeds
//       the reserved capacity;
//   (c) offsets and admission counts are identical across repeats, whatever
//       the thread interleaving of the publishes.
//
// Excluded from the default ctest run (registered under the `stress`
// configuration); run via `ctest -C stress -L stress` or the `stress`
// custom target.
#include "eim/eim/rrr_collection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace eim::eim_impl {
namespace {

using graph::VertexId;

constexpr VertexId kNumVertices = 1 << 12;
constexpr std::uint64_t kSets = 20'000;
constexpr std::uint64_t kRunSlots = 1024;

int stress_threads() {
  return static_cast<int>(std::max(8u, std::thread::hardware_concurrency() * 2));
}

/// Deterministic payload for set `i`: an ascending run of 0-6 members.
std::vector<VertexId> payload_for(std::uint64_t i) {
  const auto len = static_cast<std::uint32_t>((i * 5) % 7);
  const auto base = static_cast<VertexId>((i * 131) % (kNumVertices - 8));
  std::vector<VertexId> set(len);
  for (std::uint32_t j = 0; j < len; ++j) set[j] = base + static_cast<VertexId>(j);
  return set;
}

struct CommitOutcome {
  std::vector<std::uint64_t> starts;    ///< every set's offset
  std::vector<std::uint64_t> admitted;  ///< sets admitted per run, in order
  std::uint64_t overshoots = 0;         ///< cursor observed past capacity
};

/// Commit kSets sets in kRunSlots-slot runs starting from a small capacity:
/// each run is admitted, then its slices publish from `threads` threads
/// striped over the slots; a rejection regrows R and re-admits the tail.
CommitOutcome commit_all(DeviceRrrCollection& col, int threads) {
  std::vector<std::vector<VertexId>> payloads(kSets);
  for (std::uint64_t i = 0; i < kSets; ++i) payloads[i] = payload_for(i);

  CommitOutcome out;
  std::uint64_t capacity = 4'096;
  col.reserve(kSets, capacity);
  while (col.num_sets() < kSets) {
    const std::uint64_t first = col.num_sets();
    const std::uint64_t count = std::min(kRunSlots, kSets - first);
    std::vector<std::uint32_t> lengths(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      lengths[i] = static_cast<std::uint32_t>(payloads[first + i].size());
    }
    const std::uint64_t admitted = col.admit(lengths);
    out.admitted.push_back(admitted);
    if (col.total_elements() > col.element_capacity()) ++out.overshoots;

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (auto i = static_cast<std::uint64_t>(t); i < admitted;
             i += static_cast<std::uint64_t>(threads)) {
          col.publish(first + i, payloads[first + i]);
        }
      });
    }
    for (auto& w : workers) w.join();

    if (admitted < count) {
      capacity *= 2;
      col.reserve(kSets, capacity);
    }
  }
  for (std::uint64_t i = 0; i < kSets; ++i) out.starts.push_back(col.set_start(i));
  return out;
}

void expect_exact_commits(bool log_encode) {
  gpusim::Device device(gpusim::make_benchmark_device(256));
  DeviceRrrCollection col(device, kNumVertices, log_encode);
  const CommitOutcome out = commit_all(col, stress_threads());

  // The capacity boundary must actually have been hit.
  ASSERT_GT(out.admitted.size(), kSets / kRunSlots + 1);
  EXPECT_EQ(out.overshoots, 0u) << "cursor ran past the reserved capacity";

  std::uint64_t footprint = 0;
  std::uint64_t corrupted = 0;
  std::vector<VertexId> decoded;
  for (std::uint64_t i = 0; i < kSets; ++i) {
    const std::vector<VertexId> expect = payload_for(i);
    footprint += expect.size();
    decoded.assign(col.set_length(i), 0);
    col.decode_set(i, decoded);
    if (decoded != expect) ++corrupted;
  }
  EXPECT_EQ(corrupted, 0u) << "committed sets decoded to foreign bits";
  EXPECT_EQ(col.total_elements(), footprint)
      << "cursor desynced from the admitted footprint";
}

constexpr int kPasses = 50;

TEST(CommitStress, AdmittedSlicesPublishExactlyLogEncoded) {
  for (int pass = 0; pass < kPasses; ++pass) expect_exact_commits(/*log_encode=*/true);
}

TEST(CommitStress, AdmittedSlicesPublishExactlyRaw) {
  for (int pass = 0; pass < kPasses; ++pass) expect_exact_commits(/*log_encode=*/false);
}

TEST(CommitStress, OffsetsRepeatAcrossRuns) {
  const int threads = stress_threads();
  CommitOutcome reference;
  for (int repeat = 0; repeat < 10; ++repeat) {
    gpusim::Device device(gpusim::make_benchmark_device(256));
    DeviceRrrCollection col(device, kNumVertices, /*log_encode=*/true);
    CommitOutcome out = commit_all(col, threads);
    if (repeat == 0) {
      reference = std::move(out);
      continue;
    }
    ASSERT_EQ(out.admitted, reference.admitted) << "repeat " << repeat;
    ASSERT_EQ(out.starts, reference.starts) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace eim::eim_impl
