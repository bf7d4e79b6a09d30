// The sharded eIM driver behind run_eim_multi (multi_gpu.hpp) and
// run_eim_cluster (multi_node.hpp): one algorithm over a list of failure
// domains — D domains of one device, or N nodes of D devices. Sample id i
// lands on domain alive[i % |alive|], device (i / |alive|) % D; streams are
// keyed by sample id, so any layout or failure history unions to the
// single-device collection. A device loss drains its whole domain onto the
// survivors, which regenerate its ids from the same streams — except ids in
// a restored checkpoint prefix, which re-commit from the snapshot
// (re-sampling them would count their singleton draws a second time on top
// of the restored total). Selection is exact greedy on the merged host
// mirror, priced as the slowest alive shard scan plus one pick exchange.
// Only the interconnect differs between the tiers.
#pragma once

#include <cstdint>
#include <vector>

#include "eim/eim/options.hpp"
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

  /// First device of the first alive domain: reductions land here, and the
  /// run's phase spans and carried clock ride on it.
  gpusim::Device& primary() const { return *domains[alive.front()].front(); }
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
  /// `domain` has left `fleet.alive`, respilling `respilled` sample ids (the
  /// `regenerated` it had committed plus its in-flight batch) onto the
  /// survivors. Charges the recovery, or throws when the run cannot continue.
  virtual void domain_lost(const Fleet& fleet, std::uint32_t domain,
                           std::uint64_t regenerated, std::uint64_t respilled) = 0;
  /// Whether theta may grow from `sampled` committed samples to `target`;
  /// false once the run is frozen (quorum lost under degrade).
  virtual bool may_grow(std::uint64_t, std::uint64_t) { return true; }
  /// The interconnect's own modeled ledger; empty when its traffic is
  /// charged to the primary device's timeline.
  virtual const gpusim::DeviceTimeline& ledger() const { return no_ledger_; }
  /// Publish the interconnect's end-of-run results, metrics and trace
  /// ledger; `result`'s EimResult fields are final by then.
  virtual void finish() = 0;

 private:
  gpusim::DeviceTimeline no_ledger_;
};

/// Run eIM over `fleet`, filling `result`'s EimResult fields, then let `net`
/// publish its own.
void run_sharded(Fleet fleet, Interconnect& net, const graph::Graph& g,
                 graph::DiffusionModel model, const imm::ImmParams& params,
                 const EimOptions& options, EimResult& result);

}  // namespace eim::eim_impl
