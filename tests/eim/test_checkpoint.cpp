// Crash-safe checkpoint/resume (eim/checkpoint.hpp, docs/RESILIENCE.md).
//
// The headline test sweeps a scripted process abort over EVERY kernel-launch
// ordinal of a run and proves each interrupted run resumes from its last
// round-boundary snapshot to the bit-identical seed set, spread estimate,
// and collection shape of the uninterrupted reference.
#include "eim/eim/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/atomic_write.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/snapshot.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using support::snapshot::ByteWriter;
using support::snapshot::SnapshotCorruptError;
using support::snapshot::SnapshotReader;
using support::snapshot::SnapshotWriter;

Graph make_graph(DiffusionModel model = DiffusionModel::IndependentCascade) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(300, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params() {
  imm::ImmParams p;
  p.k = 4;
  p.epsilon = 0.4;
  return p;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path(::testing::TempDir() + stem + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

struct DevicePool {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
  explicit DevicePool(std::uint32_t n, std::uint64_t mb = 256) {
    for (std::uint32_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<gpusim::Device>(gpusim::make_benchmark_device(mb)));
      ptrs.push_back(owned.back().get());
    }
  }
};

void expect_same_answer(const EimResult& a, const EimResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_sets, b.num_sets);
  EXPECT_EQ(a.total_elements, b.total_elements);
  EXPECT_EQ(a.singletons_discarded, b.singletons_discarded);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
  EXPECT_DOUBLE_EQ(a.estimated_spread, b.estimated_spread);
}

TEST(Checkpoint, StateRoundTripsThroughDisk) {
  TempDir dir("eim_ckpt_roundtrip");
  CheckpointState s;
  s.rng_seed = 0xFFFFFFFFFFFFFFFFull;  // every bit of the 64-bit seed
  s.num_vertices = 300;
  s.num_edges = 891;
  s.k = 4;
  s.epsilon = 0.4;
  s.ell = 1.0;
  s.model = 1;
  s.log_encode = true;
  s.eliminate_sources = true;
  s.draw_mode = 1;
  s.num_devices = 3;
  s.round = {5, 4, 123.5, true};
  s.lengths = {2, 3};
  s.elements = {10, 20, 1, 2, 299};
  s.singletons_discarded = 77;
  s.kernel_seconds = 1.5;
  s.transfer_seconds = 0.25;
  s.allocation_seconds = 0.125;
  s.backoff_seconds = 0.0625;
  s.metrics_json = R"({"schema":"eim.metrics.v2","counters":{},"gauges":{})"
                   R"(,"histograms":{},"phases":[]})";
  const std::uint64_t bytes = save_checkpoint(dir.path, s);
  EXPECT_GT(bytes, 0u);

  const CheckpointState r = load_checkpoint(dir.path);
  EXPECT_EQ(r.rng_seed, s.rng_seed);
  EXPECT_EQ(r.num_vertices, s.num_vertices);
  EXPECT_EQ(r.num_edges, s.num_edges);
  EXPECT_EQ(r.k, s.k);
  EXPECT_DOUBLE_EQ(r.epsilon, s.epsilon);
  EXPECT_DOUBLE_EQ(r.ell, s.ell);
  EXPECT_EQ(r.model, s.model);
  EXPECT_EQ(r.log_encode, s.log_encode);
  EXPECT_EQ(r.eliminate_sources, s.eliminate_sources);
  EXPECT_EQ(r.draw_mode, s.draw_mode);
  EXPECT_EQ(r.num_devices, s.num_devices);
  EXPECT_EQ(r.round.next_round, s.round.next_round);
  EXPECT_EQ(r.round.estimation_rounds, s.round.estimation_rounds);
  EXPECT_DOUBLE_EQ(r.round.lower_bound, s.round.lower_bound);
  EXPECT_EQ(r.round.estimation_done, s.round.estimation_done);
  EXPECT_EQ(r.lengths, s.lengths);
  EXPECT_EQ(r.elements, s.elements);
  EXPECT_EQ(r.singletons_discarded, s.singletons_discarded);
  EXPECT_DOUBLE_EQ(r.kernel_seconds, s.kernel_seconds);
  EXPECT_DOUBLE_EQ(r.backoff_seconds, s.backoff_seconds);
  EXPECT_EQ(r.metrics_json, s.metrics_json);
}

TEST(Checkpoint, MissingDirectoryIsPlainIoErrorNotCorruption) {
  try {
    (void)load_checkpoint("/nonexistent-eim-checkpoint-dir");
    FAIL() << "expected IoError";
  } catch (const SnapshotCorruptError&) {
    FAIL() << "a missing checkpoint is not a corrupt one";
  } catch (const support::IoError&) {
  }
}

TEST(Checkpoint, CheckpointingDoesNotPerturbTheAnswer) {
  TempDir dir("eim_ckpt_noop");
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device plain_dev(gpusim::make_benchmark_device(256));
  const EimResult plain =
      run_eim(plain_dev, g, DiffusionModel::IndependentCascade, params);

  gpusim::Device ckpt_dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = dir.path;
  const EimResult with_ckpt =
      run_eim(ckpt_dev, g, DiffusionModel::IndependentCascade, params, options);

  expect_same_answer(plain, with_ckpt);
  // Identical modeled clock too: snapshot writes are host-side work.
  EXPECT_DOUBLE_EQ(plain.device_seconds, with_ckpt.device_seconds);
  // One file holds the whole checkpoint.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"snapshot.bin"});
}

TEST(Checkpoint, ResumeFromCompletedRunReplaysFinalSelect) {
  TempDir dir("eim_ckpt_completed");
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = dir.path;
  const EimResult first =
      run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);

  const CheckpointState ckpt = load_checkpoint(dir.path);
  EXPECT_TRUE(ckpt.round.estimation_done);
  EXPECT_EQ(ckpt.lengths.size(), first.num_sets);

  gpusim::Device dev2(gpusim::make_benchmark_device(256));
  EimOptions resume_options;
  resume_options.resume = &ckpt;
  const EimResult resumed =
      run_eim(dev2, g, DiffusionModel::IndependentCascade, params, resume_options);
  expect_same_answer(first, resumed);
}

TEST(Checkpoint, DegradedRunResumesToTheSameDegradedResult) {
  // A run that degraded on device OOM must checkpoint what it committed and
  // resume to the byte-identical degraded answer — same best-effort seeds,
  // same shortfall — not silently upgrade or shift. The OOM is keyed on
  // request size (not ordinal), so it reproduces across the resume replay.
  TempDir dir("eim_ckpt_degraded");
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  imm::ImmParams params;
  params.k = 8;
  params.epsilon = 0.3;

  // Above the fixed allocations (graph replica + the 4-block queue pool),
  // below what full-theta R growth requests — the OOM lands in collection
  // growth, where Degrade applies.
  gpusim::FaultPlan plan;
  plan.alloc_oom_bytes_threshold = 24 << 10;

  gpusim::Device dev(gpusim::make_benchmark_device(256));
  dev.set_fault_plan(plan);
  EimOptions options;
  options.sampler_blocks = 4;
  options.degrade_policy = DegradePolicy::Degrade;
  options.checkpoint_dir = dir.path;
  const EimResult first =
      run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);
  ASSERT_TRUE(first.degraded);
  ASSERT_EQ(first.seeds.size(), params.k);

  const CheckpointState ckpt = load_checkpoint(dir.path);
  gpusim::Device dev2(gpusim::make_benchmark_device(256));
  dev2.set_fault_plan(plan);
  EimOptions resume_options;
  resume_options.sampler_blocks = 4;
  resume_options.degrade_policy = DegradePolicy::Degrade;
  resume_options.resume = &ckpt;
  const EimResult resumed =
      run_eim(dev2, g, DiffusionModel::IndependentCascade, params, resume_options);

  EXPECT_TRUE(resumed.degraded);
  EXPECT_EQ(resumed.degrade_shortfall_bytes, first.degrade_shortfall_bytes);
  expect_same_answer(first, resumed);
}

TEST(Checkpoint, KillAtEveryKernelOrdinalResumesBitIdentical) {
  // THE tentpole property. For every launch ordinal o of the reference run:
  // run with checkpointing and a scripted process abort at o (the modeled
  // SIGKILL — no destructors of interest, state on disk only), then start a
  // fresh process (new device, new registry) resuming from the directory,
  // and require the bit-identical final answer.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  gpusim::Device ref_dev(gpusim::make_benchmark_device(256));
  const EimResult reference =
      run_eim(ref_dev, g, DiffusionModel::IndependentCascade, params);
  const std::uint64_t total_ordinals = ref_dev.kernel_launch_ordinal();
  ASSERT_GT(total_ordinals, 0u);

  for (std::uint64_t abort_at = 0; abort_at < total_ordinals; ++abort_at) {
    TempDir dir("eim_ckpt_sweep_" + std::to_string(abort_at));

    gpusim::Device doomed(gpusim::make_benchmark_device(256));
    gpusim::FaultPlan plan;
    plan.process_abort_kernel_ordinal = abort_at;
    doomed.set_fault_plan(plan);
    EimOptions options;
    options.checkpoint_dir = dir.path;
    try {
      const EimResult r =
          run_eim(doomed, g, DiffusionModel::IndependentCascade, params, options);
      ADD_FAILURE() << "abort at ordinal " << abort_at << " of " << total_ordinals
                    << " did not fire";
      expect_same_answer(reference, r);
      continue;
    } catch (const support::ProcessAbortError&) {
      // The process "died". Everything in memory is gone.
    }

    gpusim::Device fresh(gpusim::make_benchmark_device(256));
    EimOptions resume_options;
    CheckpointState ckpt;
    try {
      ckpt = load_checkpoint(dir.path);
      resume_options.resume = &ckpt;
    } catch (const support::IoError&) {
      // Killed before the first round boundary: no snapshot was ever
      // published (atomicity means no torn file either) — restart clean.
    }
    const EimResult resumed =
        run_eim(fresh, g, DiffusionModel::IndependentCascade, params, resume_options);
    expect_same_answer(reference, resumed);
  }
}

TEST(Checkpoint, MultiGpuResumeOntoDifferentDeviceCount) {
  // A checkpoint written by a 2-device run must resume on 1 and on 3
  // devices: the snapshot stores the collection in global sample-id order,
  // and resume redistributes ids modulo the *new* device count.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool ref_pool(2);
  const EimResult reference =
      run_eim_multi(ref_pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  // Interrupt a fresh 2-device checkpointed run partway through.
  TempDir dir("eim_ckpt_multi");
  {
    DevicePool doomed(2);
    gpusim::FaultPlan plan;
    plan.process_abort_kernel_ordinal = ref_pool.ptrs[0]->kernel_launch_ordinal() / 2;
    doomed.ptrs[0]->set_fault_plan(plan);
    EimOptions options;
    options.checkpoint_dir = dir.path;
    try {
      (void)run_eim_multi(doomed.ptrs, g, DiffusionModel::IndependentCascade, params,
                          options);
      // A late scripted ordinal may land after the final launch; the
      // completed checkpoint still exercises the resume path below.
    } catch (const support::ProcessAbortError&) {
    }
  }

  CheckpointState ckpt = load_checkpoint(dir.path);
  EXPECT_EQ(ckpt.num_devices, 2u);
  for (const std::uint32_t d : {1u, 3u}) {
    DevicePool pool(d);
    EimOptions options;
    options.resume = &ckpt;
    const EimResult resumed =
        run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
    expect_same_answer(reference, resumed);
  }
}

TEST(Checkpoint, ResumeThenDeviceLossDoesNotDoubleCountSingletons) {
  // Regression: a device dying after resume respills its restored sets.
  // Those sets must be re-committed from the snapshot, not re-sampled —
  // re-sampling would recount singleton draws already included in the
  // restored total (and killing the device parking the restored count
  // would lose it outright).
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool ref_pool(3);
  const EimResult reference =
      run_eim_multi(ref_pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  TempDir dir("eim_ckpt_loss_after_resume");
  {
    DevicePool doomed(3);
    gpusim::FaultPlan plan;
    plan.process_abort_kernel_ordinal = ref_pool.ptrs[0]->kernel_launch_ordinal() / 2;
    doomed.ptrs[0]->set_fault_plan(plan);
    EimOptions options;
    options.checkpoint_dir = dir.path;
    try {
      (void)run_eim_multi(doomed.ptrs, g, DiffusionModel::IndependentCascade, params,
                          options);
    } catch (const support::ProcessAbortError&) {
    }
  }

  CheckpointState ckpt = load_checkpoint(dir.path);
  // Kill the resumed primary (device 0, which holds restored state) and a
  // non-primary in separate runs; both must match the clean answer exactly,
  // singleton totals included.
  for (const std::uint32_t victim : {0u, 2u}) {
    DevicePool pool(3);
    gpusim::FaultPlan plan;
    plan.device_loss_kernel_ordinal = 1;
    pool.ptrs[victim]->set_fault_plan(plan);
    EimOptions options;
    options.resume = &ckpt;
    const EimResult resumed = run_eim_multi(
        pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
    expect_same_answer(reference, resumed);
    ASSERT_EQ(resumed.failed_domains.size(), 1u);
    EXPECT_EQ(resumed.failed_domains[0], victim);
  }
}

CheckpointState write_interrupted_multi_checkpoint(const Graph& g,
                                                  const imm::ImmParams& params,
                                                  std::uint64_t abort_ordinal,
                                                  const std::string& path) {
  DevicePool doomed(3);
  gpusim::FaultPlan plan;
  plan.process_abort_kernel_ordinal = abort_ordinal;
  doomed.ptrs[0]->set_fault_plan(plan);
  EimOptions options;
  options.checkpoint_dir = path;
  try {
    (void)run_eim_multi(doomed.ptrs, g, DiffusionModel::IndependentCascade, params,
                        options);
  } catch (const support::ProcessAbortError&) {
  }
  return load_checkpoint(path);
}

TEST(Checkpoint, FaultOnRestoreUploadRespillsEachRestoredSetOnce) {
  // Regression: a device faulting on its checkpoint-restore upload must hand
  // each of its restored sets to the survivors exactly once. Counting them
  // committed before the upload landed respilled them twice — the survivors
  // committed duplicates and total_elements/counts went wrong.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool ref_pool(3);
  const EimResult reference =
      run_eim_multi(ref_pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  TempDir dir("eim_ckpt_restore_fault");
  CheckpointState ckpt = write_interrupted_multi_checkpoint(
      g, params, ref_pool.ptrs[0]->kernel_launch_ordinal() / 2, dir.path);
  const std::uint64_t restored = ckpt.lengths.size();
  ASSERT_GT(restored, 0u);

  for (const std::uint32_t victim : {0u, 2u}) {
    DevicePool pool(3);
    gpusim::FaultPlan plan;
    // 0 stages the network; 1 is the restore upload, 2 and 3 its retries.
    plan.transfer_fault_ordinals = {1, 2, 3};
    pool.ptrs[victim]->set_fault_plan(plan);
    EimOptions options;
    options.resume = &ckpt;
    const EimResult resumed = run_eim_multi(
        pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
    expect_same_answer(reference, resumed);
    EXPECT_EQ(resumed.failed_domains, std::vector<std::uint32_t>{victim});
    // Nothing was committed on the victim; its whole stripe of the restored
    // prefix (ids congruent to `victim` mod 3) was in flight.
    EXPECT_EQ(resumed.regenerated_sets, 0u);
    const std::uint64_t stripe = (restored + 2 - victim) / 3;
    EXPECT_EQ(resumed.respilled_samples, stripe);
  }
}

TEST(Checkpoint, TransientFaultOnRestoreUploadIsRetried) {
  // One transient fault on a restore upload is retried under the run's
  // retry policy like any other transfer: no device is retired.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool ref_pool(3);
  const EimResult reference =
      run_eim_multi(ref_pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  TempDir dir("eim_ckpt_restore_retry");
  CheckpointState ckpt = write_interrupted_multi_checkpoint(
      g, params, ref_pool.ptrs[0]->kernel_launch_ordinal() / 2, dir.path);
  ASSERT_GT(ckpt.lengths.size(), 0u);

  for (const std::uint32_t victim : {0u, 2u}) {
    DevicePool pool(3);
    gpusim::FaultPlan plan;
    plan.transfer_fault_ordinals = {1};  // 0 stages the network; 1 is the restore
    pool.ptrs[victim]->set_fault_plan(plan);
    EimOptions options;
    options.resume = &ckpt;
    const EimResult resumed = run_eim_multi(
        pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
    expect_same_answer(reference, resumed);
    EXPECT_TRUE(resumed.failed_domains.empty()) << "victim " << victim;
    EXPECT_EQ(resumed.regenerated_sets, 0u);
    EXPECT_EQ(pool.ptrs[victim]->fault_stats().transfer_faults, 1u);
  }
}

TEST(Checkpoint, SecondLossWhileRecommittingAfterResumeKeepsTheAnswer) {
  // After resume, device 2 dies on its second sampling wave, so device 0
  // re-commits some of its restored sets and then samples its fresh ids.
  // Sweeping a second loss of device 0 over each of its launches reaches
  // that window: the restored sets already committed must respill from
  // device 0's shard once, not also as in-flight ids.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  DevicePool ref_pool(3);
  const EimResult reference =
      run_eim_multi(ref_pool.ptrs, g, DiffusionModel::IndependentCascade, params);

  TempDir dir("eim_ckpt_second_loss");
  CheckpointState ckpt = write_interrupted_multi_checkpoint(
      g, params, ref_pool.ptrs[0]->kernel_launch_ordinal() / 2, dir.path);
  EimOptions options;
  options.resume = &ckpt;

  gpusim::FaultPlan first_loss;
  first_loss.device_loss_kernel_ordinal = 1;
  DevicePool probe(3);
  probe.ptrs[2]->set_fault_plan(first_loss);
  (void)run_eim_multi(probe.ptrs, g, DiffusionModel::IndependentCascade, params,
                      options);
  const std::uint64_t launches = probe.ptrs[0]->kernel_launch_ordinal();
  ASSERT_GT(launches, 1u);

  for (std::uint64_t ordinal = 0; ordinal < launches; ++ordinal) {
    SCOPED_TRACE("device 0 lost at launch " + std::to_string(ordinal));
    DevicePool pool(3);
    pool.ptrs[2]->set_fault_plan(first_loss);
    gpusim::FaultPlan second_loss;
    second_loss.device_loss_kernel_ordinal = ordinal;
    pool.ptrs[0]->set_fault_plan(second_loss);
    const EimResult resumed = run_eim_multi(
        pool.ptrs, g, DiffusionModel::IndependentCascade, params, options);
    expect_same_answer(reference, resumed);
    EXPECT_EQ(resumed.failed_domains.size(), 2u);
  }
}

TEST(Checkpoint, SingleAndMultiGpuCheckpointsAreInterchangeable) {
  // Same global sample-id order on disk regardless of writer topology.
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  TempDir single_dir("eim_ckpt_from_single");
  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = single_dir.path;
  const EimResult reference =
      run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);

  CheckpointState ckpt = load_checkpoint(single_dir.path);
  DevicePool pool(2);
  EimOptions resume_options;
  resume_options.resume = &ckpt;
  const EimResult resumed =
      run_eim_multi(pool.ptrs, g, DiffusionModel::IndependentCascade, params,
                    resume_options);
  expect_same_answer(reference, resumed);
}

TEST(Checkpoint, ValidationNamesTheMismatchedField) {
  TempDir dir("eim_ckpt_validate");
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = dir.path;
  (void)run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);
  const CheckpointState ckpt = load_checkpoint(dir.path);

  const EimOptions plain;
  imm::ImmParams wrong_seed = params;
  wrong_seed.rng_seed += 1;
  try {
    validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, wrong_seed, plain);
    FAIL() << "expected InvalidArgumentError";
  } catch (const support::InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("rng_seed"), std::string::npos);
  }

  imm::ImmParams wrong_k = params;
  wrong_k.k += 1;
  EXPECT_THROW(
      validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, wrong_k, plain),
      support::InvalidArgumentError);
  EXPECT_THROW(
      validate_checkpoint(ckpt, g, DiffusionModel::LinearThreshold, params, plain),
      support::InvalidArgumentError);
  const Graph other = Graph::from_edge_list(graph::barabasi_albert(301, 3, 0.3, 7));
  EXPECT_THROW(
      validate_checkpoint(ckpt, other, DiffusionModel::IndependentCascade, params, plain),
      support::InvalidArgumentError);
  EimOptions raw;
  raw.log_encode = false;
  EXPECT_THROW(
      validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, params, raw),
      support::InvalidArgumentError);
  // The unmodified identity passes.
  validate_checkpoint(ckpt, g, DiffusionModel::IndependentCascade, params, plain);
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const Graph g = make_graph();
    gpusim::Device dev(gpusim::make_benchmark_device(256));
    EimOptions options;
    options.checkpoint_dir = dir_.path;
    (void)run_eim(dev, g, DiffusionModel::IndependentCascade, make_params(), options);
  }

  void corrupt(const std::string& file, std::size_t offset, std::uint8_t xor_mask) {
    const std::string path = dir_.path + "/" + file;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(static_cast<std::uint8_t>(byte) ^ xor_mask));
  }

  /// Write the fixture's snapshot into `dir` with section `name` dropped
  /// (no `payload`) or replaced, every checksum resealed.
  void reseal_into(const std::string& dir, const std::string& name,
                   const std::optional<std::vector<std::uint8_t>>& payload = {}) const {
    const SnapshotReader original = SnapshotReader::load_file(dir_.path + "/snapshot.bin");
    SnapshotWriter rewritten;
    for (const std::string& section : original.section_names()) {
      if (section != name) {
        const auto bytes = original.section(section);
        rewritten.add_section(section, std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
      } else if (payload) {
        rewritten.add_section(section, *payload);
      }
    }
    std::filesystem::create_directories(dir);
    rewritten.write_file(dir + "/snapshot.bin");
  }

  TempDir dir_{"eim_ckpt_corrupt"};
};

TEST_F(CheckpointCorruption, SnapshotBitFlipRejected) {
  const auto size = std::filesystem::file_size(dir_.path + "/snapshot.bin");
  // Flip a byte in the header, the table region, and deep in the payloads.
  for (const std::size_t offset :
       {std::size_t{3}, std::size_t{40}, static_cast<std::size_t>(size) - 5}) {
    SCOPED_TRACE(offset);
    corrupt("snapshot.bin", offset, 0x80);
    EXPECT_THROW((void)load_checkpoint(dir_.path), SnapshotCorruptError);
    corrupt("snapshot.bin", offset, 0x80);  // restore for the next flip
    EXPECT_NO_THROW((void)load_checkpoint(dir_.path));
  }
}

TEST_F(CheckpointCorruption, SnapshotTruncationRejected) {
  const std::string path = dir_.path + "/snapshot.bin";
  const auto size = std::filesystem::file_size(path);
  for (const double frac : {0.9, 0.3, 0.0}) {
    SCOPED_TRACE(frac);
    const auto keep = static_cast<std::uintmax_t>(static_cast<double>(size) * frac);
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW((void)load_checkpoint(dir_.path), SnapshotCorruptError);
  }
}

TEST_F(CheckpointCorruption, MissingIdentitySectionRejected) {
  // A checksum-valid snapshot without its identity section — the layout
  // written before the identity moved into snapshot.bin — must be refused,
  // not resumed against an unchecked run.
  reseal_into(dir_.path, "identity");
  try {
    (void)load_checkpoint(dir_.path);
    FAIL() << "expected SnapshotCorruptError";
  } catch (const SnapshotCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("'identity' missing"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointCorruption, ResealedMalformedMetricsRejectedAtLoad) {
  // A metrics section whose checksum is valid but whose snapshot does not
  // restore must fail at load with the corruption error, before any device
  // is staged, not as a parse error in the middle of the resumed run.
  for (const char* bad :
       {"definitely not json", R"({"counters":{"a":"not a number"}})", "[1, 2, 3]"}) {
    SCOPED_TRACE(bad);
    ByteWriter w;
    w.str(bad);
    TempDir bad_dir("eim_ckpt_bad_metrics");
    reseal_into(bad_dir.path, "metrics", w.take());
    EXPECT_THROW((void)load_checkpoint(bad_dir.path), SnapshotCorruptError);
  }
}

TEST_F(CheckpointCorruption, OutOfRangeElementRejectedDespiteValidChecksum) {
  // CRC guards bits, not semantics: hand-craft a state whose element id
  // exceeds num_vertices and ensure load refuses to hand it to the
  // collection (indexing counts_[element] would be UB).
  CheckpointState s = load_checkpoint(dir_.path);
  s.lengths = {1};
  s.elements = {s.num_vertices};  // one past the last valid vertex
  TempDir bad("eim_ckpt_bad_element");
  (void)save_checkpoint(bad.path, s);
  EXPECT_THROW((void)load_checkpoint(bad.path), SnapshotCorruptError);
}

TEST_F(CheckpointCorruption, ResealedShortIdentityRejected) {
  // The identity record is fixed-size: a resealed section one byte short
  // must fail its read, not decode num_devices from the next section.
  const SnapshotReader original = SnapshotReader::load_file(dir_.path + "/snapshot.bin");
  const auto identity = original.section("identity");
  ASSERT_FALSE(identity.empty());
  TempDir bad("eim_ckpt_short_identity");
  reseal_into(bad.path, "identity",
              std::vector<std::uint8_t>(identity.begin(), identity.end() - 1));
  EXPECT_THROW((void)load_checkpoint(bad.path), SnapshotCorruptError);
}

TEST_F(CheckpointCorruption, ResealedIdentityWithTrailingBytesRejected) {
  const SnapshotReader original = SnapshotReader::load_file(dir_.path + "/snapshot.bin");
  const auto identity = original.section("identity");
  std::vector<std::uint8_t> longer(identity.begin(), identity.end());
  longer.push_back(0);
  TempDir bad("eim_ckpt_long_identity");
  reseal_into(bad.path, "identity", longer);
  EXPECT_THROW((void)load_checkpoint(bad.path), SnapshotCorruptError);
}

TEST_F(CheckpointCorruption, LengthsDisagreeingWithElementsRejected) {
  CheckpointState s = load_checkpoint(dir_.path);
  s.lengths = {3};
  s.elements = {0, 1};  // one element short of the recorded length
  TempDir bad("eim_ckpt_bad_lengths");
  (void)save_checkpoint(bad.path, s);
  try {
    (void)load_checkpoint(bad.path);
    FAIL() << "expected SnapshotCorruptError";
  } catch (const SnapshotCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("lengths sum to 3"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointCorruption, UnsortedSetRejected) {
  // Sets are stored strictly ascending; a descending or repeated vertex
  // means the bytes are not a collection this code wrote.
  CheckpointState s = load_checkpoint(dir_.path);
  for (const std::vector<graph::VertexId>& set :
       {std::vector<graph::VertexId>{5, 3}, std::vector<graph::VertexId>{4, 4}}) {
    s.lengths = {2};
    s.elements = set;
    TempDir bad("eim_ckpt_unsorted");
    (void)save_checkpoint(bad.path, s);
    EXPECT_THROW((void)load_checkpoint(bad.path), SnapshotCorruptError);
  }
}

TEST(Checkpoint, OneSnapshotFileIsTheWholeCheckpoint) {
  // Each save publishes one file with one rename: after two rounds the
  // directory holds snapshot.bin alone, and it carries the second round.
  TempDir dir("eim_ckpt_one_file");
  CheckpointState s;
  s.num_vertices = 10;
  s.num_edges = 20;
  s.k = 2;
  s.lengths = {1};
  s.elements = {4};
  s.round.next_round = 1;
  (void)save_checkpoint(dir.path, s);
  s.round.next_round = 2;
  s.lengths = {1, 2};
  s.elements = {4, 1, 9};
  (void)save_checkpoint(dir.path, s);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"snapshot.bin"});
  const CheckpointState r = load_checkpoint(dir.path);
  EXPECT_EQ(r.round.next_round, 2u);
  EXPECT_EQ(r.lengths, s.lengths);
  EXPECT_EQ(r.elements, s.elements);
}

TEST(Checkpoint, StaleTempFilesFromKilledWriteAreHarmless) {
  // A process killed mid-write leaves the previous published snapshot plus
  // at most an unrenamed `*.tmp.<pid>` staging file. Load must read only the
  // published file, and a later checkpointed run must overwrite cleanly.
  TempDir dir("eim_ckpt_stale_tmp");
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();
  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = dir.path;
  const EimResult first =
      run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);

  std::ofstream(support::atomic_write_temp_path(dir.path + "/snapshot.bin"))
      << "garbage from a killed writer";

  const CheckpointState ckpt = load_checkpoint(dir.path);
  EXPECT_EQ(ckpt.lengths.size(), first.num_sets);

  gpusim::Device dev2(gpusim::make_benchmark_device(256));
  EimOptions resume_options;
  resume_options.resume = &ckpt;
  resume_options.checkpoint_dir = dir.path;  // keeps writing over the debris
  const EimResult resumed =
      run_eim(dev2, g, DiffusionModel::IndependentCascade, params, resume_options);
  expect_same_answer(first, resumed);
  EXPECT_NO_THROW((void)load_checkpoint(dir.path));
}

TEST(Checkpoint, MetricsRecordWritesAndResume) {
  TempDir dir("eim_ckpt_metrics");
  const Graph g = make_graph();
  const imm::ImmParams params = make_params();

  support::metrics::MetricsRegistry reg;
  gpusim::Device dev(gpusim::make_benchmark_device(256));
  EimOptions options;
  options.checkpoint_dir = dir.path;
  options.metrics = &reg;
  (void)run_eim(dev, g, DiffusionModel::IndependentCascade, params, options);
  EXPECT_GT(reg.counter("checkpoint.writes").value(), 0u);
  EXPECT_GT(reg.counter("checkpoint.bytes_written").value(), 0u);
  EXPECT_EQ(reg.counter("checkpoint.resume_loaded").value(), 0u);

  const CheckpointState ckpt = load_checkpoint(dir.path);
  support::metrics::MetricsRegistry reg2;
  gpusim::Device dev2(gpusim::make_benchmark_device(256));
  EimOptions resume_options;
  resume_options.resume = &ckpt;
  resume_options.metrics = &reg2;
  (void)run_eim(dev2, g, DiffusionModel::IndependentCascade, params, resume_options);
  EXPECT_EQ(reg2.counter("checkpoint.resume_loaded").value(), 1u);
  // The restored registry carries the interrupted run's counters forward,
  // so cumulative accounting survives the crash: the estimation-round
  // selector calls all happened before the snapshot was written.
  EXPECT_GT(reg2.counter("selector.select_calls").value(), 0u);
}

}  // namespace
}  // namespace eim::eim_impl
