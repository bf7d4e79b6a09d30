#include "sharded.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/tiered_store.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/retry.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

using graph::VertexId;

namespace {

/// Placement::device of a sample not committed on any shard.
constexpr std::uint32_t kNoOwner = std::numeric_limits<std::uint32_t>::max();

/// The sharded pick price: every shard holding sets scans them
/// concurrently (thread per set), the slowest governs, then the pick is
/// exchanged. Charged once per pick — including degenerate tail picks,
/// which still launch the kernel and exchange the (zero-gain) pick.
class ShardScanPricer final : public PickPricer {
 public:
  ShardScanPricer(const Fleet& fleet, Interconnect& net, std::size_t num_flat,
                  std::span<const Placement> placement)
      : fleet_(fleet),
        net_(net),
        placement_(placement),
        spec_(fleet.primary().spec()),
        g_lat_(static_cast<std::uint64_t>(spec_.costs.global_latency)),
        a_lat_(static_cast<std::uint64_t>(spec_.costs.atomic_global)),
        shard_sets_(num_flat, 0),
        shard_search_(num_flat, 0),
        shard_dec_(num_flat, 0) {}

  void start(std::span<const std::uint32_t> lengths) override {
    lengths_ = lengths;
    for (std::uint64_t i = 0; i < lengths.size(); ++i) {
      shard_sets_[placement_[i].device]++;
      shard_search_[placement_[i].device] += binsearch_probes(lengths[i]) * g_lat_;
    }
  }

  void cover(std::uint64_t set_id) override {
    const std::uint32_t len = lengths_[set_id];
    const std::uint32_t owner = placement_[set_id].device;
    shard_search_[owner] -= binsearch_probes(len) * g_lat_;
    shard_dec_[owner] += static_cast<std::uint64_t>(len) * (g_lat_ + a_lat_);
  }

  void charge_pick() override {
    const std::uint64_t units = spec_.max_resident_threads();
    double pick_seconds = 0.0;
    for (std::size_t f = 0; f < shard_sets_.size(); ++f) {
      if (shard_sets_[f] == 0) continue;
      const std::uint64_t total =
          shard_sets_[f] * g_lat_ + shard_search_[f] + shard_dec_[f];
      const std::uint64_t used = std::min(units, shard_sets_[f]);
      pick_seconds = std::max(
          pick_seconds, spec_.costs.kernel_launch_us * 1e-6 +
                            spec_.cycles_to_seconds(static_cast<double>(total / used)));
    }
    std::fill(shard_dec_.begin(), shard_dec_.end(), 0);
    fleet_.primary().timeline().add(gpusim::SegmentKind::Kernel, "eim::multi_update",
                                    pick_seconds);
    net_.exchange_pick(fleet_);
  }

 private:
  const Fleet& fleet_;
  Interconnect& net_;
  std::span<const Placement> placement_;
  const gpusim::DeviceSpec& spec_;
  std::uint64_t g_lat_;
  std::uint64_t a_lat_;
  std::span<const std::uint32_t> lengths_;
  std::vector<std::uint64_t> shard_sets_;
  std::vector<std::uint64_t> shard_search_;
  std::vector<std::uint64_t> shard_dec_;  ///< the current pick's decrements
};

/// A device of `domain` was lost, or faulted past the retry budget, inside
/// a driver step: the domain must be retired.
struct DomainFailure {
  std::uint32_t domain;
  std::exception_ptr cause;
};

/// Run `step` on a device of `domain`, raising its failure as DomainFailure;
/// anything else propagates.
template <typename Step>
decltype(auto) on_domain(std::uint32_t domain, Step&& step) {
  try {
    return step();
  } catch (const support::DeviceLostError&) {
    throw DomainFailure{domain, std::current_exception()};
  } catch (const support::DeviceFaultError&) {
    throw DomainFailure{domain, std::current_exception()};
  }
}

/// The committed samples in global id order, read from the shards through
/// the placement map, so failover relayouts don't matter. A spilled set
/// whose block is torn resamples on its device, which may lose the domain.
class ShardedSource final : public SetSource {
 public:
  ShardedSource(const std::vector<std::unique_ptr<DeviceRrrCollection>>& shards,
                std::span<const Placement> placed, std::uint32_t per_domain)
      : shards_(shards), placed_(placed), per_domain_(per_domain) {}

  std::uint32_t length(std::uint64_t i) const override {
    return shards_[placed_[i].device]->set_length(placed_[i].slot);
  }
  bool spilled(std::uint64_t i) const override {
    return shards_[placed_[i].device]->is_spilled(placed_[i].slot);
  }
  bool any_spilled() const override {
    return std::any_of(shards_.begin(), shards_.end(),
                       [](const auto& shard) { return shard && shard->has_spilled(); });
  }
  void decode(std::uint64_t i, std::span<VertexId> out) const override {
    on_domain(placed_[i].device / per_domain_,
              [&] { shards_[placed_[i].device]->decode_set(placed_[i].slot, out); });
  }

 private:
  const std::vector<std::unique_ptr<DeviceRrrCollection>>& shards_;
  std::span<const Placement> placed_;
  std::uint32_t per_domain_;
};

}  // namespace

std::unique_ptr<PickPricer> Interconnect::pick_pricer(
    const Fleet& fleet, std::span<const Placement> placement,
    std::uint64_t /*num_sets*/) {
  std::size_t num_flat = 0;
  for (const auto& domain : fleet.domains) num_flat += domain.size();
  return std::make_unique<ShardScanPricer>(fleet, *this, num_flat, placement);
}

void run_sharded(Fleet fleet, Interconnect& net, const graph::Graph& g,
                 graph::DiffusionModel model, const imm::ImmParams& params,
                 const EimOptions& options, EimResult& result) {
  // Flat device index f = domain * per_domain + device.
  const auto per_domain = static_cast<std::uint32_t>(fleet.domains.front().size());
  std::vector<gpusim::Device*> devices;
  std::vector<gpusim::FaultStats> faults_before;
  for (const auto& domain : fleet.domains) {
    for (gpusim::Device* d : domain) {
      devices.push_back(d);
      faults_before.push_back(d->fault_stats());
    }
  }
  const auto num_flat = static_cast<std::uint32_t>(devices.size());
  std::vector<std::uint32_t>& alive = fleet.alive;
  const auto for_alive = [&](auto&& fn) {
    for (const std::uint32_t domain : alive) {
      for (std::uint32_t i = 0; i < per_domain; ++i) fn(domain * per_domain + i);
    }
  };
  for_alive([&](std::uint32_t f) {
    devices[f]->timeline().reset();
    devices[f]->memory().reset_peak();
  });

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  support::metrics::MetricsRegistry* metrics = options.metrics;
  support::trace::TraceRecorder* trace = options.trace;

  result.network_raw_bytes = g.csc_bytes();
  // An empty network has nothing to sample and no seeds to pick; bail out
  // before a sampler touches its (empty) per-block scratch.
  if (g.num_vertices() == 0) {
    result.network_bytes = result.network_raw_bytes;
    net.finish();
    return;
  }
  std::uint64_t network_bytes = result.network_raw_bytes;
  if (options.log_encode) network_bytes = encoding::PackedCsc::packed_bytes_for(g);
  result.network_bytes = network_bytes;

  // Retry a device transfer under the run's policy, charging deterministic
  // backoff to that device's timeline and counting attempts.
  const auto retry_transfer = [&](gpusim::Device& dev, const char* label, auto&& fn) {
    support::retry(options.retry, fn,
                   [&](std::uint32_t /*attempt*/, double backoff,
                       const support::DeviceFaultError&) {
                     dev.charge_backoff(std::string(label) + " retry", backoff);
                     if (metrics != nullptr) {
                       metrics->counter("retry.attempts").add();
                       metrics->histogram("retry.backoff_seconds")
                           .observe_duration(backoff);
                     }
                   });
  };

  // Every alive device holds the (packed) graph and its own shard state.
  // Declaration order is teardown order in reverse: samplers and shards go
  // before the spill stores their commits and decodes run through.
  std::vector<gpusim::DeviceBuffer<std::uint8_t>> network_charges(num_flat);
  std::vector<std::unique_ptr<TieredRrrStore>> stores(num_flat);
  std::vector<std::unique_ptr<DeviceRrrCollection>> shards(num_flat);
  std::vector<std::unique_ptr<EimSampler>> samplers(num_flat);

  // `assigned[f]` lists the sample ids dispatched to flat device f in
  // local-slot order; `placed[id]` names where each id is committed
  // (device kNoOwner = nowhere). An id counts as committed only once its
  // shard published it, so a slot can hold a dispatched id that never
  // committed (an OOM-degraded tail) — assigned[f] still maps it for the
  // spill store.
  std::vector<std::vector<std::uint64_t>> assigned(num_flat);
  std::vector<Placement> placed;
  std::uint64_t sampled_global = 0;

  // Checkpoint-restored prefix. Kept at run level (not parked on a sampler)
  // so the restored singleton total survives the death of any domain, and
  // so failover can re-commit restored sets from the snapshot.
  const CheckpointState* const ckpt = options.resume;
  std::uint64_t num_restored = 0;
  std::uint64_t restored_singletons = 0;
  std::vector<std::uint64_t> restore_starts;

  // DegradePolicy::Degrade: an OOM while growing the collection, or the
  // alive set falling below quorum, freezes theta at the committed prefix,
  // which stays selectable (docs/RESILIENCE.md "Degradation"). The run then
  // falls short of the largest theta target it was asked for.
  bool degraded = false;
  std::uint64_t max_target = 0;
  std::optional<std::uint64_t> oom_shortfall_bytes;  // set when an OOM froze it

  const auto stage = [&](std::uint32_t f) {
    gpusim::Device& dev = *devices[f];
    network_charges[f] = dev.alloc<std::uint8_t>(network_bytes);
    retry_transfer(dev, "network CSC",
                   [&] { dev.transfer_to_device("network CSC", network_bytes); });
    shards[f] = std::make_unique<DeviceRrrCollection>(dev, g.num_vertices(),
                                                      options.log_encode);
    samplers[f] = std::make_unique<EimSampler>(dev, g, model, effective, options);
    if (options.spill.policy == SpillPolicy::Off) return;
    // Tiered spill hierarchy: memory pressure evicts cold sets downward
    // (compressed host, then disk) instead of stopping theta refinement;
    // torn disk blocks are rebuilt through deterministic resampling, so the
    // seeds stay bit-identical to an unconstrained run.
    TieredStoreOptions store_options;
    store_options.host_budget_bytes = options.spill.host_budget_bytes;
    store_options.dir = options.spill.dir.empty() || num_flat == 1
                            ? options.spill.dir
                            : options.spill.dir + "/shard-" + std::to_string(f);
    store_options.sets_per_block = options.spill.sets_per_block;
    store_options.staging_blocks = options.spill.staging_blocks;
    store_options.retry = options.retry;
    stores[f] = std::make_unique<TieredRrrStore>(dev, store_options);
    stores[f]->attach_metrics(metrics);
    if (trace != nullptr) {
      const auto pid = trace->pid_of(&dev);
      if (pid.has_value()) stores[f]->attach_trace(trace, *pid);
    }
    stores[f]->set_resample_hook(
        [&, f](std::uint64_t slot, std::vector<VertexId>& out) {
          samplers[f]->resample_set(assigned[f][slot], out);
        });
    shards[f]->attach_spill(stores[f].get(), options.spill.device_budget_bytes);
  };

  const auto flat_for = [&](std::uint64_t id) -> std::uint32_t {
    const std::uint32_t domain = alive[id % alive.size()];
    const auto device = static_cast<std::uint32_t>((id / alive.size()) % per_domain);
    return domain * per_domain + device;
  };
  // Shard f has published `count` sets from local slot `first` on.
  const auto publish = [&](std::uint32_t f, std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t slot = first; slot < first + count; ++slot) {
      placed[assigned[f][slot]] = {f, static_cast<std::uint32_t>(slot)};
    }
  };

  // Commit restored sets `ids` on flat device f straight from the snapshot
  // at the next local slots, then upload them. A spill-budgeted shard clamps
  // its device horizon, so admission may stop short; reserving again spills
  // the committed prefix downward and makes room for the rest.
  const auto recommit = [&](std::uint32_t f, std::span<const std::uint64_t> ids) {
    DeviceRrrCollection& shard = *shards[f];
    std::vector<std::uint32_t> lengths(ids.size());
    std::uint64_t elems = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      lengths[i] = ckpt->lengths[ids[i]];
      elems += lengths[i];
    }
    const std::uint64_t first = shard.num_sets();
    const std::uint64_t end_elements = shard.total_elements() + elems;
    for (std::uint64_t done = 0; done < ids.size();) {
      const std::uint64_t before = shard.element_capacity();
      shard.reserve(first + ids.size(), end_elements);
      const std::uint64_t admitted =
          shard.admit(std::span<const std::uint32_t>(lengths).subspan(done));
      EIM_CHECK_MSG(admitted > 0 || shard.element_capacity() > before,
                    "checkpoint restore: set did not fit reserved shard capacity");
      for (std::uint64_t i = done; i < done + admitted; ++i) {
        shard.publish(first + i, std::span<const VertexId>(
                                     ckpt->elements.data() + restore_starts[ids[i]],
                                     lengths[i]));
      }
      done += admitted;
    }
    gpusim::Device& dev = *devices[f];
    const std::uint64_t bytes =
        elems * sizeof(VertexId) + ids.size() * sizeof(std::uint32_t);
    retry_transfer(dev, "checkpoint restore",
                   [&] { dev.transfer_to_device("checkpoint restore", bytes); });
  };

  // Commit `ids` (ascending) on flat device f. Ids inside the restored
  // prefix re-commit from the snapshot — their singleton draws already sit
  // in the restored total; only fresh ids re-sample from index-keyed
  // streams. Each part counts as committed once it fully lands, so a fault
  // inside the restore upload respills each restored id once. Commits land
  // in slot order, so the shard always holds a prefix of assigned[f].
  const auto dispatch = [&](std::uint32_t f, std::span<const std::uint64_t> ids) {
    DeviceRrrCollection& shard = *shards[f];
    const std::uint64_t first = assigned[f].size();
    EIM_CHECK_MSG(first + ids.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "shard holds more than 2^32 sets");
    assigned[f].insert(assigned[f].end(), ids.begin(), ids.end());
    const auto restored = ids.first(static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), num_restored) - ids.begin()));
    const auto fresh = ids.subspan(restored.size());
    const std::uint64_t fresh_first = first + restored.size();
    try {
      if (!restored.empty()) {
        recommit(f, restored);
        publish(f, first, restored.size());
      }
      samplers[f]->sample_assigned(shard, fresh);
    } catch (const support::DeviceOutOfMemoryError&) {
      // Publish the sampler's committed prefix; the ids past the shard's
      // commits stay unplaced.
      if (shard.num_sets() > fresh_first) {
        publish(f, fresh_first, shard.num_sets() - fresh_first);
      }
      assigned[f].resize(shard.num_sets());
      throw;
    }
    publish(f, fresh_first, fresh.size());
  };

  // Freeze theta for `cause`, marked on `dev`'s trace track; only the first
  // cause counts. An OOM passes the bytes it was short by.
  const auto degrade = [&](gpusim::Device& dev, const std::string& cause,
                           std::optional<std::uint64_t> oom_bytes) {
    if (degraded) return;
    degraded = true;
    oom_shortfall_bytes = oom_bytes;
    if (metrics != nullptr) metrics->counter("degrade.activations").add();
    gpusim::mark_instant(trace, dev, "degrade", cause);
  };

  // Retire `domain` because of `cause`: respill every sample id its devices
  // had committed (plus the caller's `in_flight` ids) into `todo`, free its
  // device-side state, record the loss, and let the interconnect charge (or
  // refuse) the recovery. Retiring the last domain rethrows `cause`; leaving
  // fewer than quorum degrades or throws. A degraded run still regenerates
  // `todo`: the freeze only stops later theta growth.
  const auto decommission = [&](std::uint32_t domain, std::vector<std::uint64_t>& todo,
                                const std::vector<std::uint64_t>& in_flight,
                                const std::exception_ptr& cause) {
    std::uint64_t regenerated = 0;
    for (std::uint32_t i = 0; i < per_domain; ++i) {
      const std::uint32_t f = domain * per_domain + i;
      for (std::uint64_t slot = 0; slot < assigned[f].size(); ++slot) {
        const std::uint64_t id = assigned[f][slot];
        if (placed[id].device != f || placed[id].slot != slot) continue;
        placed[id].device = kNoOwner;
        todo.push_back(id);
        ++regenerated;
      }
      assigned[f].clear();
      // Teardown is safe on a lost device: deallocation stays permitted.
      samplers[f].reset();
      shards[f].reset();
      stores[f].reset();
      network_charges[f] = gpusim::DeviceBuffer<std::uint8_t>{};
    }
    todo.insert(todo.end(), in_flight.begin(), in_flight.end());
    alive.erase(std::find(alive.begin(), alive.end(), domain));
    const std::uint64_t respilled = regenerated + in_flight.size();
    result.failed_domains.push_back(domain);
    result.regenerated_sets += regenerated;
    result.respilled_samples += respilled;
    if (metrics != nullptr) {
      metrics->counter("failover.domains_lost").add();
      metrics->counter("failover.regenerated_sets").add(regenerated);
      metrics->counter("failover.respilled_samples").add(respilled);
    }
    gpusim::mark_instant(trace, *fleet.domains[domain].front(), "domain.lost",
                         "respilled=" + std::to_string(respilled));
    net.domain_lost(fleet, domain, respilled);
    if (alive.empty()) std::rethrow_exception(cause);
    const auto survivors = static_cast<std::uint32_t>(alive.size());
    if (survivors >= fleet.quorum) return;
    if (options.degrade_policy != DegradePolicy::Degrade) {
      throw support::ClusterQuorumError("node " + std::to_string(domain) + " lost",
                                        survivors, fleet.quorum);
    }
    degrade(fleet.primary(),
            "cause=quorum alive=" + std::to_string(survivors) +
                " quorum=" + std::to_string(fleet.quorum),
            std::nullopt);
  };

  // Commit the outstanding sample ids on the survivors: stripe over the
  // current alive set, absorb domain deaths by respilling, and loop until
  // every id is committed somewhere — or an OOM degrades the run, which
  // leaves the rest uncommitted and publishes the committed prefix.
  const auto regenerate = [&](std::vector<std::uint64_t>& todo) {
    bool oom = false;
    while (!todo.empty() && !oom) {
      std::sort(todo.begin(), todo.end());
      std::vector<std::vector<std::uint64_t>> batch(num_flat);
      for (const std::uint64_t id : todo) batch[flat_for(id)].push_back(id);
      std::vector<std::uint64_t>().swap(todo);  // batched: free it before sampling

      const std::vector<std::uint32_t> round = alive;  // decommission mutates alive
      for (const std::uint32_t domain : round) {
        if (oom) break;
        for (std::uint32_t i = 0; i < per_domain; ++i) {
          const std::uint32_t f = domain * per_domain + i;
          if (batch[f].empty()) continue;
          std::exception_ptr failure;
          try {
            on_domain(domain, [&] { dispatch(f, batch[f]); });
          } catch (const DomainFailure& e) {
            failure = e.cause;
          } catch (const support::DeviceOutOfMemoryError& e) {
            if (options.degrade_policy != DegradePolicy::Degrade) throw;
            const std::uint64_t deficit = e.requested_bytes() > e.available_bytes()
                                              ? e.requested_bytes() - e.available_bytes()
                                              : 0;
            degrade(*devices[f], "cause=oom shortfall_bytes=" + std::to_string(deficit),
                    deficit);
            oom = true;
            break;
          }
          if (failure) {
            // The batch's committed part already sits in the shard and
            // respills from there; only the rest, and later devices'
            // batches, are in flight.
            std::vector<std::uint64_t> in_flight;
            for (const std::uint64_t id : batch[f]) {
              if (placed[id].device == kNoOwner) in_flight.push_back(id);
            }
            for (std::uint32_t j = i + 1; j < per_domain; ++j) {
              const std::vector<std::uint64_t>& rest = batch[domain * per_domain + j];
              in_flight.insert(in_flight.end(), rest.begin(), rest.end());
            }
            decommission(domain, todo, in_flight, failure);
            break;
          }
        }
      }
    }
    if (oom) {
      const auto uncommitted = std::find_if(
          placed.begin(), placed.end(), [](Placement p) { return p.device == kNoOwner; });
      sampled_global = static_cast<std::uint64_t>(uncommitted - placed.begin());
    }
  };

  // Run a driver step until it completes: a domain lost inside it (a node
  // lost in an interconnect step, or a device failing in a spilled-set
  // resample or the seed readback) is drained and its shard regenerated on
  // the survivors before the step re-runs. Re-runs are deterministic (the
  // regenerated sets are bit-identical), so the only effect is modeled
  // recovery time.
  const auto with_failover = [&](auto&& step) {
    for (;;) {
      std::uint32_t domain = 0;
      std::exception_ptr cause;
      try {
        return step();
      } catch (const support::NodeLostError& e) {
        domain = e.node();
        cause = std::current_exception();
      } catch (const DomainFailure& e) {
        domain = e.domain;
        cause = e.cause;
      }
      std::vector<std::uint64_t> todo;
      decommission(domain, todo, {}, cause);
      regenerate(todo);
    }
  };

  // Extend the committed prefix to `target`: stripe the new ids over the
  // alive set and commit them.
  const auto extend_to = [&](std::uint64_t target) {
    std::vector<std::uint64_t> todo(target - sampled_global);
    std::iota(todo.begin(), todo.end(), sampled_global);
    sampled_global = target;
    placed.resize(sampled_global, {kNoOwner, 0});
    regenerate(todo);
  };

  for (const std::uint32_t domain : std::vector<std::uint32_t>(alive)) {
    try {
      on_domain(domain, [&] {
        for (std::uint32_t i = 0; i < per_domain; ++i) stage(domain * per_domain + i);
      });
    } catch (const DomainFailure& e) {
      std::vector<std::uint64_t> todo;
      decommission(domain, todo, {}, e.cause);
    }
  }
  with_failover([&] { net.broadcast_network(fleet, network_bytes); });

  // Resume: restripe the restored global sets over THIS run's alive set —
  // the writing run may have used any topology; because the snapshot
  // stores sets in global sample-id order and streams are index-keyed, any
  // layout produces the identical answer.
  if (ckpt != nullptr) {
    validate_checkpoint(*ckpt, g, model, params, options);
    num_restored = ckpt->lengths.size();
    restore_starts.assign(num_restored + 1, 0);
    std::inclusive_scan(ckpt->lengths.begin(), ckpt->lengths.end(),
                        restore_starts.begin() + 1, std::plus<>(), std::uint64_t{0});
    extend_to(num_restored);
    restored_singletons = ckpt->singletons_discarded;
    carry_over_resume(*ckpt, fleet.primary(), options);
  }
  // Wired after the restore so restored commits are not double-counted on
  // top of the merged metrics snapshot.
  for_alive([&](std::uint32_t f) { shards[f]->attach_metrics(metrics); });

  // A phase pairs host wall time with the modeled seconds it added to the
  // primary's timeline, under one trace span. It rides on whatever device
  // is primary when it starts; that device's modeled clock anchors both
  // endpoints even if failover promotes a new primary mid-phase.
  struct Phase {
    Phase(support::metrics::MetricsRegistry* metrics, const char* name,
          support::trace::TraceRecorder* trace, gpusim::Device& dev)
        : device(dev),
          start(dev.timeline().total_seconds()),
          pid(trace != nullptr ? trace->pid_of(&dev).value_or(0) : 0),
          timer(metrics != nullptr ? &metrics->phase(name) : nullptr),
          span(trace, pid, support::trace::SpanCategory::Phase, name, start) {
      if (timer != nullptr) wall.emplace(*timer);
    }
    [[nodiscard]] double now() const { return device.timeline().total_seconds(); }
    void end() {
      if (timer != nullptr) timer->add_modeled(now() - start);
      span.end(now());
    }
    gpusim::Device& device;
    double start;
    std::uint32_t pid;
    support::metrics::PhaseTimer* timer;
    std::optional<support::metrics::ScopedPhase> wall;
    support::trace::ScopedSpan span;
  };

  // Sampling: extend the committed prefix to `target`, then reduce the
  // per-vertex counts, unless the run is degraded.
  std::uint64_t sample_round = 0;
  auto sample_to = [&](std::uint64_t target) {
    Phase phase(metrics, "sample", trace, fleet.primary());
    support::trace::ScopedSpan round_span(trace, phase.pid,
                                          support::trace::SpanCategory::Round,
                                          "round " + std::to_string(sample_round++),
                                          phase.start);
    max_target = std::max(max_target, target);
    if (target > sampled_global && !degraded) {
      // Extend, then reduce: a domain lost during the reduction respills its
      // shard, which must be regenerated before the reduction can complete
      // over the survivors.
      extend_to(target);
      const std::uint64_t count_bytes =
          static_cast<std::uint64_t>(g.num_vertices()) * sizeof(std::uint32_t);
      with_failover([&] { net.reduce_counts(fleet, count_bytes); });
    }
    round_span.end(phase.now());
    phase.end();
  };

  // The run's selection index only ever grows: each select call (and each
  // checkpoint) reads just the samples committed since the last one.
  // Failover keeps sample ids and regenerates bit-identical sets, so the
  // index survives it.
  SelectionIndex index(g.num_vertices());
  const auto sync_index = [&] {
    index.extend(ShardedSource(shards, placed, per_domain), sampled_global, metrics);
  };

  const auto select_once = [&] {
    Phase phase(metrics, "select", trace, fleet.primary());
    const std::unique_ptr<PickPricer> pricer =
        net.pick_pricer(fleet, placed, sampled_global);
    sync_index();
    imm::SelectionResult sel =
        greedy_select(index, effective.k, *pricer, ArgMaxMode::kLazyHeap, metrics);
    phase.end();
    return sel;
  };
  // A domain lost inside a selection pass aborts it before the index grows;
  // the restart reads regenerated, bit-identical sets and so picks the same
  // seeds.
  auto select = [&] { return with_failover(select_once); };

  const auto singletons = [&] {
    std::uint64_t total = restored_singletons;
    for_alive([&](std::uint32_t f) { total += samplers[f]->singletons_discarded(); });
    return total;
  };
  // Devices run concurrently: the slowest device's kernel time governs,
  // dead domains' pre-loss work included.
  const auto max_kernel_seconds = [&] {
    double max_kernel = 0.0;
    for (const gpusim::Device* d : devices) {
      max_kernel = std::max(max_kernel, d->timeline().kernel_seconds());
    }
    return max_kernel;
  };
  const gpusim::DeviceTimeline& ledger = net.ledger();

  // Round-boundary checkpointing: the snapshot holds the global sample-id
  // order, so any topology can resume it.
  std::function<void(const imm::FrameworkRoundState&)> on_round;
  if (!options.checkpoint_dir.empty()) {
    on_round = [&](const imm::FrameworkRoundState& fr) {
      CheckpointState state;
      fill_checkpoint_identity(state, g, model, params, options, num_flat);
      state.round = fr;
      with_failover(sync_index);
      state.singletons_discarded = singletons();
      const gpusim::DeviceTimeline& clock = fleet.primary().timeline();
      state.kernel_seconds = max_kernel_seconds();
      state.transfer_seconds = clock.transfer_seconds() + ledger.transfer_seconds();
      state.allocation_seconds = clock.allocation_seconds();
      state.backoff_seconds = clock.backoff_seconds() + ledger.backoff_seconds();
      CollectionView collection{index.lengths(), {}};
      for (const SelectionIndex::Segment& segment : index.segments()) {
        collection.elements.emplace_back(segment.flat);
      }
      publish_checkpoint(state, collection, fleet.primary(), options);
    };
  }

  const imm::FrameworkOutcome outcome = imm::run_imm_framework(
      g.num_vertices(), effective, sample_to, select,
      ckpt != nullptr ? &ckpt->round : nullptr, on_round);

  // Seeds travel back over the primary's PCIe link (k vertex ids).
  with_failover([&] {
    gpusim::Device& primary = fleet.primary();
    on_domain(alive.front(), [&] {
      retry_transfer(primary, "seed set", [&] {
        primary.transfer_to_host("seed set", outcome.final_selection.seeds.size() *
                                                 sizeof(VertexId));
      });
    });
  });

  // Fold every device's ledger — dead domains' pre-loss work included —
  // into the trace as leaf spans on its own track, and its peak memory into
  // the result. The run is over, so every segment interval is final.
  for (const gpusim::Device* d : devices) {
    result.peak_device_bytes =
        std::max(result.peak_device_bytes, d->memory().peak_bytes());
    const auto pid = trace != nullptr ? trace->pid_of(d) : std::nullopt;
    if (pid.has_value()) gpusim::record_timeline_spans(*trace, *pid, d->timeline());
  }

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = sampled_global;
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.singletons_discarded = singletons();
  for_alive([&](std::uint32_t f) {
    result.total_elements += shards[f]->total_elements();
    result.rrr_bytes += shards[f]->stored_bytes();
    result.rrr_raw_bytes += shards[f]->raw_equivalent_bytes();
  });
  result.degraded = degraded;
  if (degraded && max_target > result.num_sets) {
    result.degrade_shortfall_samples = max_target - result.num_sets;
  }
  result.degrade_shortfall_bytes = oom_shortfall_bytes.value_or(
      result.num_sets > 0
          ? result.degrade_shortfall_samples * (result.rrr_bytes / result.num_sets)
          : 0);
  // Coverage under source elimination is conditional on non-singleton
  // samples; rescale by the kept fraction so the reported spread estimate
  // stays an unbiased n * F over *all* generated samples. (The inflated
  // conditional coverage still drives the theta estimate — that is the
  // §3.4 heuristic's speed mechanism.)
  const std::uint64_t generated = result.num_sets + result.singletons_discarded;
  const double kept_fraction = generated > 0 ? static_cast<double>(result.num_sets) /
                                                   static_cast<double>(generated)
                                             : 1.0;  // degraded before any commit
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;

  // Modeled wall time: the slowest device's kernel time, plus the primary's
  // PCIe transfers (serialized on its copy engine) and any backoff it
  // absorbed, plus the interconnect's own ledger.
  result.kernel_seconds = max_kernel_seconds();
  result.transfer_seconds = fleet.primary().timeline().transfer_seconds();
  result.device_seconds = result.kernel_seconds + result.transfer_seconds +
                          fleet.primary().timeline().allocation_seconds() +
                          fleet.primary().timeline().backoff_seconds() +
                          ledger.total_seconds();

  if (options.spill.policy != SpillPolicy::Off) {
    std::uint64_t disk_bytes = 0;
    for_alive([&](std::uint32_t f) {
      result.spilled_sets += stores[f]->spilled_sets();
      result.spill_bytes_compressed += stores[f]->compressed_bytes();
      disk_bytes += stores[f]->disk_bytes();
    });
    if (metrics != nullptr) {
      metrics->gauge("spill.compressed_bytes").set(result.spill_bytes_compressed);
      metrics->gauge("spill.disk_bytes").set(disk_bytes);
    }
  }
  if (metrics != nullptr) {
    metrics->counter("imm.estimation_rounds").add(result.estimation_rounds);
    metrics->gauge("imm.theta").set(result.num_sets);
    metrics->gauge("rrr.stored_bytes").set(result.rrr_bytes);
    metrics->gauge("rrr.raw_equivalent_bytes").set(result.rrr_raw_bytes);
    if (degraded) {
      metrics->gauge("degrade.shortfall_samples").set(result.degrade_shortfall_samples);
      metrics->gauge("degrade.shortfall_bytes").set(result.degrade_shortfall_bytes);
    }
  }
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    gpusim::record_fault_deltas(metrics, faults_before[f], devices[f]->fault_stats());
  }
  net.finish();
}

}  // namespace eim::eim_impl
