#include "eim/eim/checkpoint.hpp"

#include <filesystem>
#include <fstream>
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
using support::JsonValue;
using support::snapshot::ByteReader;
using support::snapshot::ByteWriter;
using support::snapshot::SnapshotCorruptError;
using support::snapshot::SnapshotReader;
using support::snapshot::SnapshotWriter;

constexpr std::string_view kManifestSchema = "eim.checkpoint.v1";
constexpr const char* kManifestFile = "manifest.json";
constexpr const char* kSnapshotFile = "snapshot.bin";

std::string manifest_path(const std::string& dir) { return dir + "/" + kManifestFile; }
std::string snapshot_path(const std::string& dir) { return dir + "/" + kSnapshotFile; }

std::string render_manifest(const CheckpointState& state) {
  std::ostringstream out;
  support::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kManifestSchema);
  // Decimal string: JSON numbers round-trip through int64, and the seed is
  // an arbitrary 64-bit value.
  w.field("rng_seed", std::string_view(std::to_string(state.rng_seed)));
  w.field("num_vertices", std::uint64_t{state.num_vertices});
  w.field("num_edges", state.num_edges);
  w.field("k", std::uint64_t{state.k});
  w.field("epsilon", state.epsilon);
  w.field("ell", state.ell);
  w.field("model", std::uint64_t{state.model});
  w.field("log_encode", state.log_encode);
  w.field("eliminate_sources", state.eliminate_sources);
  w.field("draw_mode", std::uint64_t{state.draw_mode});
  w.field("num_devices", std::uint64_t{state.num_devices});
  w.field("num_sets", std::uint64_t{state.lengths.size()});
  w.field("snapshot", std::string_view(kSnapshotFile));
  w.end_object();
  out << '\n';
  return out.str();
}

/// Parse + validate the manifest into the identity block of `state`. Every
/// schema defect — unparseable JSON, missing member, wrong schema tag —
/// reports as SnapshotCorruptError.
void decode_manifest(const std::string& text, CheckpointState& state) {
  try {
    const JsonValue doc = support::parse_json(text);
    const std::string& schema = doc.at("schema").as_string();
    if (schema != kManifestSchema) {
      throw SnapshotCorruptError("manifest schema '" + schema + "' (expected '" +
                                 std::string(kManifestSchema) + "')");
    }
    state.rng_seed = std::stoull(doc.at("rng_seed").as_string());
    state.num_vertices = static_cast<std::uint32_t>(doc.at("num_vertices").as_int());
    state.num_edges = static_cast<std::uint64_t>(doc.at("num_edges").as_int());
    state.k = static_cast<std::uint32_t>(doc.at("k").as_int());
    state.epsilon = doc.at("epsilon").as_double();
    state.ell = doc.at("ell").as_double();
    state.model = static_cast<std::uint8_t>(doc.at("model").as_int());
    state.log_encode = doc.at("log_encode").as_bool();
    state.eliminate_sources = doc.at("eliminate_sources").as_bool();
    // Optional for backward compatibility: manifests written before the
    // fast-draw mode existed carry no draw_mode and decode as Exact.
    const JsonValue* draw_mode = doc.find("draw_mode");
    state.draw_mode =
        draw_mode != nullptr ? static_cast<std::uint8_t>(draw_mode->as_int()) : 0;
    state.num_devices = static_cast<std::uint32_t>(doc.at("num_devices").as_int());
  } catch (const SnapshotCorruptError&) {
    throw;
  } catch (const support::Error& e) {
    // JsonParseError, missing members, kind mismatches: all structural
    // damage to the checkpoint, not user error.
    throw SnapshotCorruptError(std::string("manifest: ") + e.what());
  } catch (const std::exception& e) {
    throw SnapshotCorruptError(std::string("manifest: ") + e.what());
  }
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open checkpoint file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw IoError("cannot read checkpoint file '" + path + "'");
  return buffer.str();
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

}  // namespace

std::uint64_t save_checkpoint(const std::string& dir, const CheckpointState& state) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create checkpoint directory '" + dir + "': " + ec.message());
  }

  SnapshotWriter snap;
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
    w.u32_array(std::span<const std::uint32_t>(state.lengths));
    w.u32_array(std::span<const graph::VertexId>(state.elements));
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

  // snapshot.bin first, manifest last: the manifest only ever points at a
  // fully published snapshot, and each rename is individually atomic.
  const std::string snapshot_bytes = snap.serialize();
  support::atomic_write_file(snapshot_path(dir), snapshot_bytes);
  const std::string manifest = render_manifest(state);
  support::atomic_write_file(manifest_path(dir), manifest);
  return snapshot_bytes.size() + manifest.size();
}

CheckpointState load_checkpoint(const std::string& dir) {
  CheckpointState state;
  decode_manifest(read_text_file(manifest_path(dir)), state);

  const SnapshotReader snap = SnapshotReader::load_file(snapshot_path(dir));
  {
    ByteReader r = snap.reader("framework");
    state.round.next_round = r.u32();
    state.round.estimation_rounds = r.u32();
    state.round.lower_bound = r.f64();
    state.round.estimation_done = r.u8() != 0;
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
    state.kernel_seconds = r.f64();
    state.transfer_seconds = r.f64();
    state.allocation_seconds = r.f64();
    state.backoff_seconds = r.f64();
    r.expect_exhausted();
  }
  {
    ByteReader r = snap.reader("metrics");
    state.metrics_json = r.str();
    r.expect_exhausted();
  }

  validate_collection_shape(state);
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

void publish_checkpoint(CheckpointState& state, const gpusim::Device& primary,
                        const EimOptions& options) {
  if (options.metrics != nullptr) {
    std::ostringstream snapshot;
    support::JsonWriter w(snapshot);
    options.metrics->write_json(w);
    state.metrics_json = snapshot.str();
  }
  const std::uint64_t bytes = save_checkpoint(options.checkpoint_dir, state);
  if (options.metrics != nullptr) {
    options.metrics->counter("checkpoint.writes").add();
    options.metrics->counter("checkpoint.bytes_written").add(bytes);
  }
  gpusim::mark_instant(options.trace, primary, "checkpoint.write",
                       "num_sets=" + std::to_string(state.lengths.size()));
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
