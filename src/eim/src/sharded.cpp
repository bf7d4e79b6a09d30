#include "sharded.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/lazy_greedy.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

using graph::VertexId;

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

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  result.network_raw_bytes = g.csc_bytes();
  std::uint64_t network_bytes = result.network_raw_bytes;
  if (options.log_encode) network_bytes = encoding::PackedCsc::packed_bytes_for(g);
  result.network_bytes = network_bytes;

  support::metrics::MetricsRegistry* metrics = options.metrics;
  support::trace::TraceRecorder* trace = options.trace;

  // Every alive device holds the (packed) graph and its own shard state.
  std::vector<gpusim::DeviceBuffer<std::uint8_t>> network_charges(num_flat);
  std::vector<std::unique_ptr<DeviceRrrCollection>> shards(num_flat);
  std::vector<std::unique_ptr<EimSampler>> samplers(num_flat);
  for_alive([&](std::uint32_t f) {
    gpusim::Device& dev = *devices[f];
    dev.timeline().reset();
    dev.memory().reset_peak();
    network_charges[f] = dev.alloc<std::uint8_t>(network_bytes);
    dev.transfer_to_device("network CSC", network_bytes);
    shards[f] = std::make_unique<DeviceRrrCollection>(dev, g.num_vertices(),
                                                      options.log_encode);
    samplers[f] = std::make_unique<EimSampler>(dev, g, model, effective, options);
  });

  // Failover bookkeeping: `assigned[f]` lists flat device f's sample ids in
  // local-slot order, and owner_of/slot_of invert that mapping per global
  // sample id. Fault-free the layout is the striping above; after a loss
  // the survivors absorb the dead shards' ids at whatever slots come next.
  std::vector<std::vector<std::uint64_t>> assigned(num_flat);
  std::vector<std::uint32_t> owner_of;
  std::vector<std::uint64_t> slot_of;
  std::uint64_t sampled_global = 0;

  // Checkpoint-restored prefix. Kept at run level (not parked on a sampler)
  // so the restored singleton total survives the death of any domain, and
  // so failover can re-commit restored sets from the snapshot.
  const CheckpointState* const ckpt = options.resume;
  std::uint64_t num_restored = 0;
  std::uint64_t restored_singletons = 0;
  std::vector<std::uint64_t> restore_starts;

  const auto flat_for = [&](std::uint64_t id) -> std::uint32_t {
    const std::uint32_t domain = alive[id % alive.size()];
    const auto device = static_cast<std::uint32_t>((id / alive.size()) % per_domain);
    return domain * per_domain + device;
  };
  const auto record = [&](std::uint32_t f, std::uint64_t id) {
    owner_of[id] = f;
    slot_of[id] = assigned[f].size();
    assigned[f].push_back(id);
  };

  // Commit restored sets `ids` on flat device f straight from the snapshot
  // and charge their upload. The ids count as committed (recorded) only once
  // the upload succeeds, so a fault inside it respills each of them once.
  const auto recommit = [&](std::uint32_t f, std::span<const std::uint64_t> ids) {
    std::uint64_t elems = 0;
    for (const std::uint64_t id : ids) elems += ckpt->lengths[id];
    const std::uint64_t first_slot = assigned[f].size();
    shards[f]->reserve(first_slot + ids.size(), shards[f]->total_elements() + elems);
    for (std::uint64_t i = 0; i < ids.size(); ++i) {
      const std::span<const VertexId> set(
          ckpt->elements.data() + restore_starts[ids[i]], ckpt->lengths[ids[i]]);
      EIM_CHECK_MSG(shards[f]->try_commit(first_slot + i, set),
                    "checkpoint restore: set did not fit reserved shard capacity");
    }
    shards[f]->set_num_sets(first_slot + ids.size());
    devices[f]->transfer_to_device("checkpoint restore",
                                   elems * sizeof(VertexId) +
                                       ids.size() * sizeof(std::uint32_t));
    for (const std::uint64_t id : ids) record(f, id);
  };

  // Drain `domain`: respill every sample id its devices owned (plus the
  // in-flight batches) into `todo`, free its device-side state, and let the
  // interconnect charge (or refuse) the recovery.
  const auto decommission = [&](std::uint32_t domain, std::vector<std::uint64_t>& todo,
                                const std::vector<std::uint64_t>& in_flight) {
    std::uint64_t regenerated = 0;
    for (std::uint32_t i = 0; i < per_domain; ++i) {
      const std::uint32_t f = domain * per_domain + i;
      regenerated += assigned[f].size();
      todo.insert(todo.end(), assigned[f].begin(), assigned[f].end());
      assigned[f].clear();
      // Teardown is safe on a lost device: deallocation stays permitted.
      samplers[f].reset();
      shards[f].reset();
      network_charges[f] = gpusim::DeviceBuffer<std::uint8_t>{};
    }
    todo.insert(todo.end(), in_flight.begin(), in_flight.end());
    alive.erase(std::find(alive.begin(), alive.end(), domain));
    net.domain_lost(fleet, domain, regenerated, regenerated + in_flight.size());
  };

  // Commit the outstanding sample ids on the survivors: stripe over the
  // current alive set, absorb domain deaths by respilling, and loop until
  // every id is committed somewhere.
  const auto regenerate = [&](std::vector<std::uint64_t>& todo) {
    while (!todo.empty()) {
      std::sort(todo.begin(), todo.end());
      std::vector<std::vector<std::uint64_t>> batch(num_flat);
      for (const std::uint64_t id : todo) batch[flat_for(id)].push_back(id);
      todo.clear();

      const std::vector<std::uint32_t> round = alive;  // decommission mutates alive
      for (const std::uint32_t domain : round) {
        for (std::uint32_t i = 0; i < per_domain; ++i) {
          const std::uint32_t f = domain * per_domain + i;
          if (batch[f].empty()) continue;
          const std::size_t committed_before = assigned[f].size();
          bool failed = false;
          try {
            // Ids inside the restored prefix (a prefix of the ascending
            // batch) re-commit from the snapshot — their singleton draws
            // already sit in the restored total; only fresh ids re-sample
            // from index-keyed streams.
            const std::span<const std::uint64_t> ids(batch[f]);
            const auto restored = ids.first(static_cast<std::size_t>(
                std::lower_bound(ids.begin(), ids.end(), num_restored) - ids.begin()));
            const auto fresh = ids.subspan(restored.size());
            if (!restored.empty()) recommit(f, restored);
            if (!fresh.empty()) {
              samplers[f]->sample_assigned(*shards[f], fresh);
              for (const std::uint64_t id : fresh) record(f, id);
            }
          } catch (const support::DeviceLostError&) {
            failed = true;
          } catch (const support::DeviceFaultError&) {
            // Transient faults are retried inside the sampler; reaching
            // here means the retry budget is exhausted — retire the domain.
            failed = true;
          }
          if (failed) {
            // The batch's committed prefix (restored sets whose upload
            // landed) already sits in assigned[f] and respills from there;
            // only the rest, and later devices' batches, are in flight.
            const auto committed =
                static_cast<std::ptrdiff_t>(assigned[f].size() - committed_before);
            batch[f].erase(batch[f].begin(), batch[f].begin() + committed);
            std::vector<std::uint64_t> in_flight;
            for (std::uint32_t j = i; j < per_domain; ++j) {
              const std::vector<std::uint64_t>& rest = batch[domain * per_domain + j];
              in_flight.insert(in_flight.end(), rest.begin(), rest.end());
            }
            decommission(domain, todo, in_flight);
            break;
          }
        }
      }
    }
  };

  // Run an interconnect step until it completes: a domain lost inside it
  // is drained and its shard regenerated on the survivors before the step
  // re-runs. Re-runs are deterministic (the regenerated sets are
  // bit-identical), so the only effect is modeled recovery time.
  const auto with_failover = [&](auto&& step) {
    for (;;) {
      try {
        return step();
      } catch (const support::NodeLostError& e) {
        std::vector<std::uint64_t> todo;
        decommission(e.node(), todo, {});
        regenerate(todo);
      }
    }
  };

  // Extend the committed prefix to `target`: stripe the new ids over the
  // alive set and commit them.
  const auto extend_to = [&](std::uint64_t target) {
    std::vector<std::uint64_t> todo(target - sampled_global);
    std::iota(todo.begin(), todo.end(), sampled_global);
    sampled_global = target;
    owner_of.resize(sampled_global);
    slot_of.resize(sampled_global);
    regenerate(todo);
  };

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
  for_alive([&](std::uint32_t f) { shards[f]->attach_metrics(metrics); });

  // Sampling: extend the committed prefix to `target`, then reduce the
  // per-vertex counts, unless the interconnect has frozen the run.
  std::uint64_t sample_round = 0;
  auto sample_to = [&](std::uint64_t target) {
    if (target <= sampled_global || !net.may_grow(sampled_global, target)) return;
    std::optional<support::metrics::ScopedPhase> scope;
    if (metrics != nullptr) scope.emplace(metrics->phase("sample"));
    // The phase rides on whatever device is primary when the round starts;
    // its modeled clock anchors both endpoints even if failover promotes a
    // new primary mid-round.
    gpusim::Device* const span_dev = &fleet.primary();
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    const double span_start = span_dev->timeline().total_seconds();
    support::trace::ScopedSpan phase_span(
        trace, span_pid, support::trace::SpanCategory::Phase, "sample", span_start);
    support::trace::ScopedSpan round_span(
        trace, span_pid, support::trace::SpanCategory::Round,
        "round " + std::to_string(sample_round++), span_start);

    // Extend, then reduce: a domain lost during the reduction respills its
    // shard, which must be regenerated before the reduction can complete
    // over the survivors.
    extend_to(target);
    const std::uint64_t count_bytes =
        static_cast<std::uint64_t>(g.num_vertices()) * sizeof(std::uint32_t);
    with_failover([&] { net.reduce_counts(fleet, count_bytes); });
    round_span.end(span_dev->timeline().total_seconds());
    phase_span.end(span_dev->timeline().total_seconds());
  };

  // Merge the shard mirrors back into global sample-id order through the
  // owner/slot maps, so failover relayouts don't matter; returns each set's
  // start offset into `elements`.
  const auto gather = [&](std::vector<std::uint32_t>& lengths,
                          std::vector<VertexId>& elements) {
    lengths.resize(sampled_global);
    std::vector<std::uint64_t> starts(sampled_global + 1, 0);
    for (std::uint64_t i = 0; i < sampled_global; ++i) {
      lengths[i] = shards[owner_of[i]]->set_length(slot_of[i]);
      starts[i + 1] = starts[i] + lengths[i];
    }
    elements.resize(starts.back());
    for (std::uint64_t i = 0; i < sampled_global; ++i) {
      shards[owner_of[i]]->decode_set(
          slot_of[i], std::span<VertexId>(elements.data() + starts[i], lengths[i]));
    }
    return starts;
  };

  auto select_once = [&] {
    std::optional<support::metrics::ScopedPhase> scope;
    if (metrics != nullptr) scope.emplace(metrics->phase("select"));
    gpusim::Device* const span_dev = &fleet.primary();
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    support::trace::ScopedSpan phase_span(
        trace, span_pid, support::trace::SpanCategory::Phase, "select",
        span_dev->timeline().total_seconds());
    const VertexId n = g.num_vertices();

    const std::uint64_t num_sets = sampled_global;
    std::vector<std::uint32_t> lengths;
    std::vector<VertexId> flat;
    const std::vector<std::uint64_t> starts = gather(lengths, flat);

    std::vector<std::uint32_t> counts(n, 0);
    for_alive([&](std::uint32_t f) {
      for (VertexId v = 0; v < n; ++v) counts[v] += shards[f]->counts()[v];
    });

    std::vector<std::uint64_t> index_offsets;
    std::vector<std::uint64_t> index_sets;
    build_inverted_index(flat, starts, num_sets, n, index_offsets, index_sets);

    const auto& spec = fleet.primary().spec();
    const auto g_lat = static_cast<std::uint64_t>(spec.costs.global_latency);
    const auto a_lat = static_cast<std::uint64_t>(spec.costs.atomic_global);
    const std::uint64_t units = spec.max_resident_threads();

    // Per-device running aggregates for the scan cost.
    std::vector<std::uint64_t> shard_sets(num_flat, 0);
    std::vector<std::uint64_t> shard_search(num_flat, 0);
    for (std::uint64_t i = 0; i < num_sets; ++i) {
      shard_sets[owner_of[i]]++;
      shard_search[owner_of[i]] += binsearch_probes(lengths[i]) * g_lat;
    }

    std::vector<std::uint8_t> covered(num_sets, 0);
    std::vector<std::uint8_t> chosen(n, 0);
    imm::SelectionResult sel;
    sel.seeds.reserve(effective.k);

    // Per-pick modeled cost: every alive device scans its shard
    // concurrently (the slowest governs), then the pick is exchanged.
    // Charged once per pick — including degenerate tail picks, which still
    // launch the kernel and exchange the (zero-gain) pick.
    const auto charge_pick = [&](const std::vector<std::uint64_t>& shard_dec) {
      double pick_seconds = 0.0;
      for_alive([&](std::uint32_t f) {
        if (shard_sets[f] == 0) return;
        const std::uint64_t total =
            shard_sets[f] * g_lat + shard_search[f] + shard_dec[f];
        const std::uint64_t used =
            std::max<std::uint64_t>(1, std::min(units, shard_sets[f]));
        pick_seconds = std::max(
            pick_seconds, spec.costs.kernel_launch_us * 1e-6 +
                              spec.cycles_to_seconds(static_cast<double>(total / used)));
      });
      fleet.primary().timeline().add(gpusim::SegmentKind::Kernel, "eim::multi_update",
                                     pick_seconds);
      net.exchange_pick(fleet);
    };
    const std::vector<std::uint64_t> no_decrements(num_flat, 0);

    // CELF-style lazy arg-max over the merged counts; bit-identical to the
    // linear reference scan (see lazy_greedy.hpp for the tie-break proof).
    LazyArgMaxHeap heap{std::span<const std::uint32_t>(counts)};

    for (std::uint32_t pick = 0; pick < effective.k; ++pick) {
      VertexId best = graph::kInvalidVertex;
      std::uint32_t best_count = 0;
      if (!heap.pop_best(counts, chosen, best, best_count)) {
        // Degenerate tail: every set is covered but picks remain. Charge
        // the per-pick kernel + exchange for each filler so the modeled
        // time reflects k rounds like the unsaturated path.
        for (VertexId v = 0; v < n && sel.seeds.size() < effective.k; ++v) {
          if (chosen[v] == 0) {
            chosen[v] = 1;
            sel.seeds.push_back(v);
            charge_pick(no_decrements);
          }
        }
        break;
      }
      chosen[best] = 1;
      sel.seeds.push_back(best);

      std::vector<std::uint64_t> shard_dec(num_flat, 0);
      for (std::uint64_t idx = index_offsets[best]; idx < index_offsets[best + 1];
           ++idx) {
        const std::uint64_t set_id = index_sets[idx];
        if (covered[set_id] != 0) continue;
        covered[set_id] = 1;
        ++sel.covered_sets;
        const std::uint32_t len = lengths[set_id];
        const std::uint32_t owner = owner_of[set_id];
        shard_search[owner] -= binsearch_probes(len) * g_lat;
        shard_dec[owner] += static_cast<std::uint64_t>(len) * (g_lat + a_lat);
        for (std::uint64_t p = starts[set_id]; p < starts[set_id + 1]; ++p) {
          --counts[flat[p]];
        }
      }

      charge_pick(shard_dec);
    }

    sel.coverage_fraction = num_sets == 0 ? 0.0
                                          : static_cast<double>(sel.covered_sets) /
                                                static_cast<double>(num_sets);
    phase_span.end(span_dev->timeline().total_seconds());
    return sel;
  };
  // A domain lost inside a selection pass aborts it; the restart rebuilds
  // the merged mirror from regenerated, bit-identical sets and so picks
  // the same seeds.
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
      (void)gather(state.lengths, state.elements);
      state.singletons_discarded = singletons();
      const gpusim::DeviceTimeline& clock = fleet.primary().timeline();
      state.kernel_seconds = max_kernel_seconds();
      state.transfer_seconds = clock.transfer_seconds() + ledger.transfer_seconds();
      state.allocation_seconds = clock.allocation_seconds();
      state.backoff_seconds = clock.backoff_seconds() + ledger.backoff_seconds();
      publish_checkpoint(state, fleet.primary(), options);
    };
  }

  const imm::FrameworkOutcome outcome = imm::run_imm_framework(
      g.num_vertices(), effective, sample_to, select,
      ckpt != nullptr ? &ckpt->round : nullptr, on_round);

  gpusim::Device& primary = fleet.primary();
  primary.transfer_to_host("seed set",
                           outcome.final_selection.seeds.size() * sizeof(VertexId));

  // Fold every device's ledger — dead domains' pre-loss work included —
  // into the trace as leaf spans on its own track, and its peak memory into
  // the result.
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
  // Same conditional-coverage correction as the single-device pipeline.
  const double kept_fraction =
      static_cast<double>(result.num_sets) /
      static_cast<double>(result.num_sets + result.singletons_discarded);
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;

  // Modeled wall time: the slowest device's kernel time, plus the primary's
  // PCIe transfers (serialized on its copy engine) and any backoff it
  // absorbed, plus the interconnect's own ledger.
  result.kernel_seconds = max_kernel_seconds();
  result.transfer_seconds = primary.timeline().transfer_seconds();
  result.device_seconds = result.kernel_seconds + result.transfer_seconds +
                          primary.timeline().allocation_seconds() +
                          primary.timeline().backoff_seconds() + ledger.total_seconds();

  if (metrics != nullptr) {
    metrics->counter("imm.estimation_rounds").add(result.estimation_rounds);
    metrics->gauge("imm.theta").set(result.num_sets);
  }
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    gpusim::record_fault_deltas(metrics, faults_before[f], devices[f]->fault_stats());
  }
  net.finish();
}

}  // namespace eim::eim_impl
