// The one eIM driver: run_eim (pipeline.hpp) runs it on one device,
// run_eim_multi (multi_gpu.hpp) on D domains of one device, run_eim_cluster
// (multi_node.hpp) on N nodes of D devices; only the Interconnect differs.
// Sample id i lands on domain alive[i % |alive|], device (i / |alive|) % D;
// streams are keyed by sample id, so any layout or failure history unions
// to the single-device collection. Each shard owns its sampler, collection
// and spill store. A loss, or a transient fault past EimOptions::retry,
// retires the device's whole domain and the survivors regenerate its ids —
// except ids in a restored checkpoint prefix, which re-commit from the
// snapshot (re-sampling them would count their singleton draws twice).
// Retiring the last domain rethrows whatever killed it. The driver records
// every retirement once, whatever the topology: EimResult's failover
// fields, the failover.* counters and a domain.lost trace instant; the
// interconnect only charges the recovery transfer. Under
// DegradePolicy::Degrade an OOM freezes theta at the smallest sample id not
// yet committed, and falling below the fleet's quorum freezes it once the
// step in flight completes. Selection is greedy_select on the merged host
// mirror, priced per pick by the interconnect's PickPricer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

/// A sharded run's devices grouped into failure domains (every domain holds
/// the same number of devices), and the domains still in service.
struct Fleet {
  std::vector<std::vector<gpusim::Device*>> domains;  ///< [domain][device]
  std::vector<std::uint32_t> alive;                   ///< ascending domain ids
  /// Fewest alive domains that keep the run authoritative. Only a cluster
  /// sets it above 1, so falling below it is a ClusterQuorumError.
  std::uint32_t quorum = 1;

  /// First device of the first alive domain: reductions land here, and the
  /// run's phase spans, carried clock and seed readback ride on it.
  gpusim::Device& primary() const { return *domains[alive.front()].front(); }
};

/// Where a committed sample lives: flat device index and local slot.
struct Placement {
  std::uint32_t device;
  std::uint32_t slot;
};

/// The traffic between failure domains. The three exchange steps may throw
/// NodeLostError naming a domain; the driver then drains that domain,
/// regenerates its shard on the survivors, and repeats the step.
class Interconnect {
 public:
  virtual ~Interconnect() = default;
  /// Distribute the staged network once before sampling starts.
  virtual void broadcast_network(const Fleet& /*fleet*/, std::uint64_t /*bytes*/) {}
  /// Combine the alive shards' per-vertex counts after a sampling phase.
  virtual void reduce_counts(const Fleet& fleet, std::uint64_t bytes) = 0;
  /// Exchange one selection pick: the chosen vertex out, coverage back.
  virtual void exchange_pick(const Fleet& fleet) = 0;
  /// Price one selection pass over the merged mirror of the first
  /// `num_sets` samples, placed as `placement` says. Created before the
  /// mirror is decoded. The default: every alive shard scans its own sets
  /// concurrently (the slowest governs), then exchange_pick.
  virtual std::unique_ptr<PickPricer> pick_pricer(const Fleet& fleet,
                                                  std::span<const Placement> placement,
                                                  std::uint64_t num_sets);
  /// `domain` has left `fleet.alive`, respilling `respilled` sample ids onto
  /// the survivors; the driver has already recorded the loss. Charges the
  /// recovery transfer, or throws when the run cannot continue; with no
  /// survivor left the driver rethrows the fault itself, and below quorum
  /// the driver degrades or throws. One device has nothing to charge.
  virtual void domain_lost(const Fleet& /*fleet*/, std::uint32_t /*domain*/,
                           std::uint64_t /*respilled*/) {}
  /// The interconnect's own modeled ledger; empty when its traffic is
  /// charged to the primary device's timeline.
  virtual const gpusim::DeviceTimeline& ledger() const { return no_ledger_; }
  /// Publish the interconnect's end-of-run results, metrics and trace
  /// ledger; the driver's result fields are final by then.
  virtual void finish() = 0;

 private:
  gpusim::DeviceTimeline no_ledger_;
};

/// Run eIM over `fleet`, filling `result`, then let `net` finish it.
void run_sharded(Fleet fleet, Interconnect& net, const graph::Graph& g,
                 graph::DiffusionModel model, const imm::ImmParams& params,
                 const EimOptions& options, EimResult& result);

}  // namespace eim::eim_impl
