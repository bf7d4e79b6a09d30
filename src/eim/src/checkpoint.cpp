#include "eim/eim/checkpoint.hpp"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <utility>

#include "eim/eim/options.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/support/atomic_write.hpp"
#include "eim/support/error.hpp"
#include "eim/support/json.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/snapshot.hpp"

namespace eim::eim_impl {

namespace {

using support::IoError;
using support::InvalidArgumentError;
using support::snapshot::ByteReader;
using support::snapshot::ByteWriter;
using support::snapshot::SnapshotCorruptError;
using support::snapshot::SnapshotReader;
using support::snapshot::SnapshotWriter;

constexpr const char* kSnapshotFile = "snapshot.bin";

std::string snapshot_path(const std::string& dir) { return dir + "/" + kSnapshotFile; }

/// A boolean byte: 0 or 1, as the writer stores it.
bool read_bool(ByteReader& r, const char* field) {
  const std::uint8_t b = r.u8();
  if (b > 1) {
    throw SnapshotCorruptError(std::string(field) + " holds " + std::to_string(b) +
                               ", not a boolean");
  }
  return b != 0;
}

/// Modeled seconds: finite and non-negative, as every clock charge is.
double read_seconds(ByteReader& r, const char* field) {
  const double s = r.f64();
  if (!std::isfinite(s) || s < 0.0) {
    throw SnapshotCorruptError(std::string("timeline ") + field + " is " +
                               std::to_string(s) + ", not a modeled duration");
  }
  return s;
}

/// Structural checks beyond checksums: the decoded collection must be a
/// plausible RRR collection for the recorded graph, or restoring it would
/// index out of range.
void validate_collection_shape(const CheckpointState& state) {
  std::uint64_t total = 0;
  for (const std::uint32_t len : state.lengths) total += len;
  if (total != state.elements.size()) {
    throw SnapshotCorruptError("collection lengths sum to " + std::to_string(total) +
                               " but " + std::to_string(state.elements.size()) +
                               " elements are stored");
  }
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < state.lengths.size(); ++i) {
    graph::VertexId prev = 0;
    for (std::uint32_t j = 0; j < state.lengths[i]; ++j) {
      const graph::VertexId v = state.elements[pos++];
      if (v >= state.num_vertices) {
        throw SnapshotCorruptError("set " + std::to_string(i) + " holds vertex " +
                                   std::to_string(v) + " outside the recorded range");
      }
      if (j > 0 && v <= prev) {
        throw SnapshotCorruptError("set " + std::to_string(i) +
                                   " is not strictly ascending");
      }
      prev = v;
    }
  }
}

/// A checksum-valid metrics section must still restore, or resuming would
/// fail mid-run after every device is staged: restore it into a throwaway
/// registry now and report any defect as snapshot damage.
void validate_metrics(const std::string& metrics_json) {
  if (metrics_json.empty()) return;
  try {
    support::metrics::MetricsRegistry scratch;
    support::metrics::restore_registry_json(scratch, metrics_json);
  } catch (const support::Error& e) {
    throw SnapshotCorruptError(std::string("metrics: ") + e.what());
  }
}

}  // namespace

std::uint64_t save_checkpoint(const std::string& dir, const CheckpointState& state,
                              const CollectionView& collection) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create checkpoint directory '" + dir + "': " + ec.message());
  }

  SnapshotWriter snap;
  {
    ByteWriter w;
    w.u64(state.rng_seed);
    w.u32(state.num_vertices);
    w.u64(state.num_edges);
    w.u32(state.k);
    w.f64(state.epsilon);
    w.f64(state.ell);
    w.u8(state.model);
    w.u8(state.log_encode ? 1 : 0);
    w.u8(state.eliminate_sources ? 1 : 0);
    w.u8(state.draw_mode);
    w.u32(state.num_devices);
    snap.add_section("identity", w.take());
  }
  {
    ByteWriter w;
    w.u32(state.round.next_round);
    w.u32(state.round.estimation_rounds);
    w.f64(state.round.lower_bound);
    w.u8(state.round.estimation_done ? 1 : 0);
    snap.add_section("framework", w.take());
  }
  {
    ByteWriter w;
    w.u32_array(collection.lengths);
    w.u32_array(std::span<const std::span<const graph::VertexId>>(collection.elements));
    snap.add_section("collection", w.take());
  }
  {
    ByteWriter w;
    w.u64(state.singletons_discarded);
    snap.add_section("sampler", w.take());
  }
  {
    ByteWriter w;
    w.f64(state.kernel_seconds);
    w.f64(state.transfer_seconds);
    w.f64(state.allocation_seconds);
    w.f64(state.backoff_seconds);
    snap.add_section("timeline", w.take());
  }
  {
    ByteWriter w;
    w.str(state.metrics_json);
    snap.add_section("metrics", w.take());
  }

  // One file, one atomic rename: a reader sees the previous checkpoint or
  // this one, never a mix of two rounds.
  const std::string snapshot_bytes = snap.serialize();
  support::atomic_write_file(snapshot_path(dir), snapshot_bytes);
  return snapshot_bytes.size();
}

std::uint64_t save_checkpoint(const std::string& dir, const CheckpointState& state) {
  return save_checkpoint(dir, state, CollectionView{state.lengths, {state.elements}});
}

CheckpointState load_checkpoint(const std::string& dir) {
  CheckpointState state;
  const SnapshotReader snap = SnapshotReader::load_file(snapshot_path(dir));
  {
    ByteReader r = snap.reader("identity");
    state.rng_seed = r.u64();
    state.num_vertices = r.u32();
    state.num_edges = r.u64();
    state.k = r.u32();
    state.epsilon = r.f64();
    state.ell = r.f64();
    state.model = r.u8();
    state.log_encode = read_bool(r, "identity log_encode");
    state.eliminate_sources = read_bool(r, "identity eliminate_sources");
    state.draw_mode = r.u8();
    state.num_devices = r.u32();
    r.expect_exhausted();
  }
  {
    ByteReader r = snap.reader("framework");
    state.round.next_round = r.u32();
    state.round.estimation_rounds = r.u32();
    state.round.lower_bound = r.f64();
    state.round.estimation_done = read_bool(r, "framework estimation_done");
    r.expect_exhausted();
  }
  {
    ByteReader r = snap.reader("collection");
    state.lengths = r.u32_array<std::uint32_t>();
    state.elements = r.u32_array<graph::VertexId>();
    r.expect_exhausted();
  }
  {
    ByteReader r = snap.reader("sampler");
    state.singletons_discarded = r.u64();
    r.expect_exhausted();
  }
  {
    ByteReader r = snap.reader("timeline");
    state.kernel_seconds = read_seconds(r, "kernel_seconds");
    state.transfer_seconds = read_seconds(r, "transfer_seconds");
    state.allocation_seconds = read_seconds(r, "allocation_seconds");
    state.backoff_seconds = read_seconds(r, "backoff_seconds");
    r.expect_exhausted();
  }
  {
    ByteReader r = snap.reader("metrics");
    state.metrics_json = r.str();
    r.expect_exhausted();
  }

  validate_collection_shape(state);
  validate_metrics(state.metrics_json);
  return state;
}

void validate_checkpoint(const CheckpointState& state, const graph::Graph& g,
                         graph::DiffusionModel model, const imm::ImmParams& params,
                         const EimOptions& options) {
  const auto mismatch = [](const char* field, const std::string& have,
                           const std::string& want) -> void {
    throw InvalidArgumentError(std::string("checkpoint does not match this run: ") +
                               field + " is " + have + " in the snapshot but " + want +
                               " here");
  };
  if (state.num_vertices != g.num_vertices()) {
    mismatch("num_vertices", std::to_string(state.num_vertices),
             std::to_string(g.num_vertices()));
  }
  if (state.num_edges != g.num_edges()) {
    mismatch("num_edges", std::to_string(state.num_edges), std::to_string(g.num_edges()));
  }
  if (state.model != static_cast<std::uint8_t>(model)) {
    mismatch("model", std::to_string(state.model),
             std::to_string(static_cast<std::uint8_t>(model)));
  }
  if (state.rng_seed != params.rng_seed) {
    mismatch("rng_seed", std::to_string(state.rng_seed), std::to_string(params.rng_seed));
  }
  if (state.k != params.k) {
    mismatch("k", std::to_string(state.k), std::to_string(params.k));
  }
  if (state.epsilon != params.epsilon) {
    mismatch("epsilon", std::to_string(state.epsilon), std::to_string(params.epsilon));
  }
  if (state.ell != params.ell) {
    mismatch("ell", std::to_string(state.ell), std::to_string(params.ell));
  }
  if (state.log_encode != options.log_encode) {
    mismatch("log_encode", state.log_encode ? "true" : "false",
             options.log_encode ? "true" : "false");
  }
  if (state.eliminate_sources != options.eliminate_sources) {
    mismatch("eliminate_sources", state.eliminate_sources ? "true" : "false",
             options.eliminate_sources ? "true" : "false");
  }
  if (state.draw_mode != static_cast<std::uint8_t>(options.draw_mode)) {
    const auto name = [](std::uint8_t m) {
      return m == static_cast<std::uint8_t>(DrawMode::Skip) ? "skip" : "exact";
    };
    mismatch("draw_mode", name(state.draw_mode),
             name(static_cast<std::uint8_t>(options.draw_mode)));
  }
}

void fill_checkpoint_identity(CheckpointState& state, const graph::Graph& g,
                              graph::DiffusionModel model, const imm::ImmParams& params,
                              const EimOptions& options, std::uint32_t num_devices) {
  state.rng_seed = params.rng_seed;
  state.num_vertices = g.num_vertices();
  state.num_edges = g.num_edges();
  state.k = params.k;
  state.epsilon = params.epsilon;
  state.ell = params.ell;
  state.model = static_cast<std::uint8_t>(model);
  state.log_encode = options.log_encode;
  state.eliminate_sources = options.eliminate_sources;
  state.draw_mode = static_cast<std::uint8_t>(options.draw_mode);
  state.num_devices = num_devices;
}

void publish_checkpoint(CheckpointState& state, const CollectionView& collection,
                        const gpusim::Device& primary, const EimOptions& options) {
  if (options.metrics != nullptr) {
    std::ostringstream snapshot;
    support::JsonWriter w(snapshot);
    options.metrics->write_json(w);
    state.metrics_json = snapshot.str();
  }
  const std::uint64_t bytes = save_checkpoint(options.checkpoint_dir, state, collection);
  if (options.metrics != nullptr) {
    options.metrics->counter("checkpoint.writes").add();
    options.metrics->counter("checkpoint.bytes_written").add(bytes);
  }
  gpusim::mark_instant(options.trace, primary, "checkpoint.write",
                       "num_sets=" + std::to_string(collection.lengths.size()));
}

void carry_over_resume(const CheckpointState& state, gpusim::Device& primary,
                       const EimOptions& options) {
  gpusim::DeviceTimeline& timeline = primary.timeline();
  const std::string label = "resume carry-over";
  timeline.add(gpusim::SegmentKind::Kernel, label, state.kernel_seconds);
  timeline.add(gpusim::SegmentKind::Transfer, label, state.transfer_seconds);
  timeline.add(gpusim::SegmentKind::Allocation, label, state.allocation_seconds);
  timeline.add(gpusim::SegmentKind::Backoff, label, state.backoff_seconds);
  if (options.metrics != nullptr) {
    if (!state.metrics_json.empty()) {
      support::metrics::restore_registry_json(*options.metrics, state.metrics_json);
    }
    options.metrics->counter("checkpoint.resume_loaded").add();
  }
  gpusim::mark_instant(options.trace, primary, "checkpoint.resume",
                       "num_sets=" + std::to_string(state.lengths.size()));
}

void export_collection(const DeviceRrrCollection& collection, CheckpointState& state) {
  const std::uint64_t num_sets = collection.num_sets();
  state.lengths.resize(num_sets);
  state.elements.clear();
  state.elements.reserve(collection.total_elements());
  for (std::uint64_t i = 0; i < num_sets; ++i) {
    const std::uint32_t len = collection.set_length(i);
    state.lengths[i] = len;
    const std::size_t at = state.elements.size();
    state.elements.resize(at + len);
    collection.decode_set(i, std::span(state.elements.data() + at, len));
  }
}

}  // namespace eim::eim_impl
