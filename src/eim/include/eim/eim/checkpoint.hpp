// Crash-safe checkpoint/resume for the eIM pipeline (docs/RESILIENCE.md).
//
// At every round boundary the pipeline can serialize its complete restart
// state into one file, <dir>/snapshot.bin: a support::snapshot container
// with the sections "identity" (graph shape, params, model, options),
// "framework", "collection", "sampler", "timeline" and "metrics".
//
// The file is published with support::atomic_write_file, so a kill at any
// instant leaves either the previous consistent checkpoint or the new one —
// never a torn one.
//
// Resume is bit-identical by construction: RRR sampling draws from streams
// keyed by the *global sample index* (sampler.hpp's determinism contract),
// so restoring the committed sets 0..theta'-1 plus the framework's round
// position replays the remaining indices exactly as the uninterrupted run
// would have generated them. The snapshot therefore stores the collection
// in global sample-id order (lengths + flattened sorted elements), the
// framework round state, the singleton tally (which fixes the §3.4
// kept-fraction, and with it estimated_spread), the modeled-timeline
// aggregates, and a metrics-registry snapshot.
//
// Corruption handling: any bit flip or truncation in snapshot.bin is caught
// by the container's CRC-32C checksums, and a checksum-valid section that
// does not decode (a missing section, out-of-range elements, a metrics
// snapshot that does not restore) by the decoders here. All surface as
// snapshot::SnapshotCorruptError — an IoError, exit code 3 — never a crash
// or a silently wrong resume. Resuming against the wrong graph/params is
// InvalidArgumentError (exit code 2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/driver.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

class DeviceRrrCollection;
struct EimOptions;

/// Everything a crashed run needs to continue, decoded into host memory.
struct CheckpointState {
  // Run identity — validated against the resuming run's inputs so a
  // snapshot can never silently continue the wrong run.
  std::uint64_t rng_seed = 0;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t k = 0;
  double epsilon = 0.0;
  double ell = 0.0;
  std::uint8_t model = 0;  ///< graph::DiffusionModel as an integer
  bool log_encode = false;
  bool eliminate_sources = false;
  /// eim_impl::DrawMode as an integer. Part of the identity: Exact and Skip
  /// consume the RNG streams differently, so a resume that silently switched
  /// modes would splice two incompatible draw sequences.
  std::uint8_t draw_mode = 0;
  /// Device count of the writing run. Informational only: a resumed run may
  /// redistribute the restored collection across a different device count.
  std::uint32_t num_devices = 1;

  /// Where the IMM framework stopped (theta targets are recomputed).
  imm::FrameworkRoundState round;

  /// The committed collection in global sample-id order: per-set lengths
  /// and the flattened element array (each set ascending, as committed).
  /// load_checkpoint fills them; a running eIM driver leaves them empty and
  /// saves its selection index through a CollectionView instead.
  std::vector<std::uint32_t> lengths;
  std::vector<graph::VertexId> elements;

  /// §3.4 singleton tally at the boundary (exact, for estimated_spread).
  std::uint64_t singletons_discarded = 0;

  /// Modeled-timeline aggregates, carried over so device_seconds stays the
  /// cumulative modeled cost of reaching the answer across run segments.
  double kernel_seconds = 0.0;
  double transfer_seconds = 0.0;
  double allocation_seconds = 0.0;
  double backoff_seconds = 0.0;

  /// Registry snapshot in the eim.metrics.v2 registry schema ("" = none);
  /// folded back via support::metrics::restore_registry_json on resume.
  std::string metrics_json;
};

/// A collection in global sample-id order as a checkpoint writes it: per-set
/// lengths, and the flattened members split into consecutive parts (a
/// running selection index's segments), so writing needs no merged copy.
struct CollectionView {
  std::span<const std::uint32_t> lengths;
  std::vector<std::span<const graph::VertexId>> elements;
};

/// Serialize `state`, with `collection` as its collection, into `dir`
/// (created if missing) as snapshot.bin, published atomically. Returns the
/// bytes written. Throws support::IoError when the directory or file cannot
/// be written.
std::uint64_t save_checkpoint(const std::string& dir, const CheckpointState& state,
                              const CollectionView& collection);

/// save_checkpoint with state.lengths / state.elements as the collection.
std::uint64_t save_checkpoint(const std::string& dir, const CheckpointState& state);

/// Load and fully validate the checkpoint in `dir`. Throws plain
/// support::IoError when no checkpoint exists (missing/unreadable file) and
/// support::snapshot::SnapshotCorruptError on any structural, checksum, or
/// schema damage — including a missing identity section, element values
/// outside the recorded vertex range, timeline seconds that are NaN,
/// infinite or negative, boolean bytes other than 0 or 1, and a metrics
/// snapshot that does not restore.
[[nodiscard]] CheckpointState load_checkpoint(const std::string& dir);

/// Guard a resume against the wrong run: `state`'s identity block must match
/// the resuming run's graph shape, diffusion model, ImmParams, and the
/// layout-relevant options. Throws support::InvalidArgumentError (exit code
/// 2) naming the first mismatched field.
void validate_checkpoint(const CheckpointState& state, const graph::Graph& g,
                         graph::DiffusionModel model, const imm::ImmParams& params,
                         const EimOptions& options);

/// Fill `state`'s identity block (the fields validate_checkpoint checks)
/// and the writing run's device count from the writing run's inputs.
void fill_checkpoint_identity(CheckpointState& state, const graph::Graph& g,
                              graph::DiffusionModel model, const imm::ImmParams& params,
                              const EimOptions& options, std::uint32_t num_devices);

/// Save a round-boundary checkpoint of `state` and `collection` into
/// options.checkpoint_dir with the registry snapshot folded in, count the
/// write, and mark it on `primary`'s trace track.
void publish_checkpoint(CheckpointState& state, const CollectionView& collection,
                        const gpusim::Device& primary, const EimOptions& options);

/// Carry a resumed segment onto `primary`: add its timeline aggregates (so
/// device_seconds stays the cumulative modeled cost of reaching the
/// answer), fold back its metrics snapshot, count the resume, and mark it.
void carry_over_resume(const CheckpointState& state, gpusim::Device& primary,
                       const EimOptions& options);

/// Flatten `collection` (its full committed range) into
/// `state.lengths`/`state.elements` in set-index order.
void export_collection(const DeviceRrrCollection& collection, CheckpointState& state);

}  // namespace eim::eim_impl
