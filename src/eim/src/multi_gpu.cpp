#include "eim/eim/multi_gpu.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/lazy_greedy.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

using graph::VertexId;

namespace {

/// Scalar binary-search cost in global reads (same formula as the
/// single-device selector).
std::uint64_t binsearch_probes(std::uint32_t len) {
  return 1 + support::ceil_log2(std::max<std::uint32_t>(2, len));
}

}  // namespace

MultiGpuResult run_eim_multi(std::vector<gpusim::Device*> devices,
                             const graph::Graph& g, graph::DiffusionModel model,
                             const imm::ImmParams& params, const EimOptions& options) {
  EIM_CHECK_MSG(!devices.empty(), "need at least one device");
  for (gpusim::Device* d : devices) EIM_CHECK_MSG(d != nullptr, "null device");
  const auto num_devices = static_cast<std::uint32_t>(devices.size());

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  MultiGpuResult result;
  result.num_devices = num_devices;
  result.network_raw_bytes = g.csc_bytes();
  std::uint64_t network_bytes = result.network_raw_bytes;
  if (options.log_encode) network_bytes = encoding::PackedCsc::packed_bytes_for(g);
  result.network_bytes = network_bytes;

  std::vector<gpusim::FaultStats> faults_before(num_devices);
  for (std::uint32_t d = 0; d < num_devices; ++d) {
    faults_before[d] = devices[d]->fault_stats();
  }

  // One trace track per device; the samplers resolve their wave-span pids
  // through pid_of, and the phase spans ride on the current primary.
  support::trace::TraceRecorder* trace = options.trace;
  if (trace != nullptr) {
    for (std::uint32_t d = 0; d < num_devices; ++d) {
      trace->register_process("device " + std::to_string(d), devices[d]);
    }
  }

  // Every device holds the (packed) graph and its own shard state.
  std::vector<gpusim::DeviceBuffer<std::uint8_t>> network_charges;
  std::vector<std::unique_ptr<DeviceRrrCollection>> shards;
  std::vector<std::unique_ptr<EimSampler>> samplers;
  for (gpusim::Device* d : devices) {
    d->timeline().reset();
    d->memory().reset_peak();
    network_charges.push_back(d->alloc<std::uint8_t>(network_bytes));
    d->transfer_to_device("network CSC", network_bytes);
    shards.push_back(
        std::make_unique<DeviceRrrCollection>(*d, g.num_vertices(), options.log_encode));
    samplers.push_back(std::make_unique<EimSampler>(*d, g, model, effective, options));
  }

  support::metrics::Counter* count_allreduces =
      options.metrics != nullptr ? &options.metrics->counter("multi.count_allreduces")
                                 : nullptr;
  support::metrics::Counter* pick_broadcasts =
      options.metrics != nullptr ? &options.metrics->counter("multi.pick_broadcasts")
                                 : nullptr;
  support::metrics::PhaseTimer* sample_phase =
      options.metrics != nullptr ? &options.metrics->phase("sample") : nullptr;
  support::metrics::PhaseTimer* select_phase =
      options.metrics != nullptr ? &options.metrics->phase("select") : nullptr;

  // Failover bookkeeping. `alive` holds the indices still in service;
  // `assigned[d]` lists device d's sample ids in local-slot order, and
  // owner_of/slot_of invert that mapping per global sample id. In the
  // fault-free case the layout reduces to the classic id % D / id / D
  // striping, but after a loss survivors absorb the dead shard's ids at
  // whatever slots come next.
  std::vector<std::uint32_t> alive(num_devices);
  for (std::uint32_t d = 0; d < num_devices; ++d) alive[d] = d;
  std::vector<std::vector<std::uint64_t>> assigned(num_devices);
  std::vector<std::uint32_t> owner_of;
  std::vector<std::uint64_t> slot_of;

  gpusim::Device* primary = devices.front();
  std::uint64_t sampled_global = 0;
  double communication = 0.0;

  // Checkpoint-restored prefix. Kept at run level (not parked on a sampler)
  // so the restored singleton total survives the death of any device, and
  // so failover can re-commit restored sets from the snapshot instead of
  // re-sampling them — re-sampling would count their singleton draws a
  // second time on top of the restored total.
  std::uint64_t num_restored = 0;
  std::uint64_t restored_singletons = 0;
  std::vector<std::uint64_t> restore_starts;

  // Resume: redistribute the restored global sets over THIS run's device
  // count (id % D striping) — the writing run may have used a different
  // number of devices; because the snapshot stores sets in global sample-id
  // order and streams are index-keyed, any D produces the identical answer.
  if (options.resume != nullptr) {
    const CheckpointState& ckpt = *options.resume;
    validate_checkpoint(ckpt, g, model, params, options);
    const std::uint64_t restored = ckpt.lengths.size();
    restore_starts.assign(restored + 1, 0);
    const std::vector<std::uint64_t>& starts = restore_starts;
    for (std::uint64_t i = 0; i < restored; ++i) {
      restore_starts[i + 1] = restore_starts[i] + ckpt.lengths[i];
    }
    num_restored = restored;
    owner_of.resize(restored);
    slot_of.resize(restored);
    for (std::uint32_t d = 0; d < num_devices; ++d) {
      std::uint64_t shard_sets = 0;
      std::uint64_t shard_elems = 0;
      for (std::uint64_t i = d; i < restored; i += num_devices) {
        ++shard_sets;
        shard_elems += ckpt.lengths[i];
      }
      if (shard_sets == 0) continue;
      shards[d]->reserve(shard_sets, shard_elems);
      for (std::uint64_t i = d; i < restored; i += num_devices) {
        const std::span<const VertexId> set(ckpt.elements.data() + starts[i],
                                            ckpt.lengths[i]);
        EIM_CHECK_MSG(shards[d]->try_commit(assigned[d].size(), set),
                      "checkpoint restore: set did not fit reserved shard capacity");
        owner_of[i] = d;
        slot_of[i] = assigned[d].size();
        assigned[d].push_back(i);
      }
      shards[d]->set_num_sets(assigned[d].size());
      devices[d]->transfer_to_device("checkpoint restore",
                                     shard_elems * sizeof(VertexId) +
                                         shard_sets * sizeof(std::uint32_t));
    }
    sampled_global = restored;
    restored_singletons = ckpt.singletons_discarded;
    // Carried modeled clock lands on the primary, matching how the result's
    // device_seconds aggregates over the fleet.
    primary->timeline().add(gpusim::SegmentKind::Kernel, "resume carry-over",
                            ckpt.kernel_seconds);
    primary->timeline().add(gpusim::SegmentKind::Transfer, "resume carry-over",
                            ckpt.transfer_seconds);
    primary->timeline().add(gpusim::SegmentKind::Allocation, "resume carry-over",
                            ckpt.allocation_seconds);
    primary->timeline().add(gpusim::SegmentKind::Backoff, "resume carry-over",
                            ckpt.backoff_seconds);
    if (options.metrics != nullptr) {
      if (!ckpt.metrics_json.empty()) {
        support::metrics::restore_registry_json(*options.metrics, ckpt.metrics_json);
      }
      options.metrics->counter("checkpoint.resume_loaded").add();
    }
    if (trace != nullptr) {
      if (const auto pid = trace->pid_of(primary); pid.has_value()) {
        trace->instant(*pid, "checkpoint.resume",
                       "num_sets=" + std::to_string(restored),
                       primary->timeline().total_seconds());
      }
    }
  }
  for (std::uint32_t d = 0; d < num_devices; ++d) {
    shards[d]->attach_metrics(options.metrics);
  }

  // Decommission device d: respill everything it owned (plus its in-flight
  // batch) into `todo`, free its device-side state, and charge the
  // redistribution broadcast of the respilled sample indices on the
  // (possibly just-promoted) primary.
  const auto decommission = [&](std::uint32_t d, std::vector<std::uint64_t>& todo,
                                const std::vector<std::uint64_t>& in_flight) {
    const std::uint64_t regenerated = assigned[d].size();
    const std::uint64_t respilled = regenerated + in_flight.size();
    for (const std::uint64_t id : assigned[d]) todo.push_back(id);
    for (const std::uint64_t id : in_flight) todo.push_back(id);
    result.failover_regenerated_sets += regenerated;
    assigned[d].clear();
    // Teardown is safe on a lost device: deallocation stays permitted.
    samplers[d].reset();
    shards[d].reset();
    network_charges[d] = gpusim::DeviceBuffer<std::uint8_t>{};
    alive.erase(std::find(alive.begin(), alive.end(), d));
    result.failed_devices.push_back(d);
    EIM_CHECK_MSG(!alive.empty(), "every device lost; cannot recover the run");
    primary = devices[alive.front()];
    const std::uint64_t bytes = respilled * sizeof(std::uint64_t);
    if (bytes > 0) {
      primary->transfer_to_device("failover redistribution", bytes);
      result.failover_transfer_bytes += bytes;
    }
    if (options.metrics != nullptr) {
      options.metrics->counter("multi.failover_events").add();
      options.metrics->counter("multi.failover_regenerated_sets").add(regenerated);
      options.metrics->counter("multi.failover_transfer_bytes").add(bytes);
    }
    if (trace != nullptr) {
      if (const auto lost_pid = trace->pid_of(devices[d]); lost_pid.has_value()) {
        trace->instant(*lost_pid, "device.lost",
                       "respilled=" + std::to_string(respilled),
                       devices[d]->timeline().total_seconds());
      }
      if (const auto pri_pid = trace->pid_of(primary);
          pri_pid.has_value() && bytes > 0) {
        trace->instant(*pri_pid, "failover.redistribute",
                       "bytes=" + std::to_string(bytes),
                       primary->timeline().total_seconds());
      }
    }
  };

  // Sampling with failover: distribute the outstanding ids over the
  // survivors (id % |alive| striping), absorb device deaths by respilling,
  // and loop until every id is committed somewhere.
  std::uint64_t sample_round = 0;
  auto sample_to = [&](std::uint64_t target) {
    if (target <= sampled_global) return;
    std::optional<support::metrics::ScopedPhase> scope;
    if (sample_phase != nullptr) scope.emplace(*sample_phase);
    // The phase rides on whatever device is primary when the round starts;
    // its modeled clock anchors both endpoints even if failover promotes a
    // new primary mid-round.
    gpusim::Device* const span_dev = primary;
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    const double span_start = span_dev->timeline().total_seconds();
    support::trace::ScopedSpan phase_span(
        trace, span_pid, support::trace::SpanCategory::Phase, "sample", span_start);
    support::trace::ScopedSpan round_span(
        trace, span_pid, support::trace::SpanCategory::Round,
        "round " + std::to_string(sample_round++), span_start);

    std::vector<std::uint64_t> todo;
    todo.reserve(target - sampled_global);
    for (std::uint64_t i = sampled_global; i < target; ++i) todo.push_back(i);
    sampled_global = target;
    owner_of.resize(sampled_global);
    slot_of.resize(sampled_global);

    while (!todo.empty()) {
      std::sort(todo.begin(), todo.end());
      std::vector<std::vector<std::uint64_t>> batch(num_devices);
      for (const std::uint64_t id : todo) {
        batch[alive[id % alive.size()]].push_back(id);
      }
      todo.clear();

      const std::vector<std::uint32_t> round = alive;  // decommission mutates alive
      for (const std::uint32_t d : round) {
        if (batch[d].empty()) continue;
        try {
          // Ids inside the restored prefix re-commit straight from the
          // snapshot (their singleton draws already sit in the restored
          // total); only fresh ids re-sample from index-keyed streams.
          std::vector<std::uint64_t> recommit;
          std::vector<std::uint64_t> fresh;
          for (const std::uint64_t id : batch[d]) {
            (id < num_restored ? recommit : fresh).push_back(id);
          }
          if (!recommit.empty()) {
            const CheckpointState& ckpt = *options.resume;
            std::uint64_t recommit_elems = 0;
            for (const std::uint64_t id : recommit) {
              recommit_elems += ckpt.lengths[id];
            }
            shards[d]->reserve(assigned[d].size() + recommit.size(),
                               shards[d]->total_elements() + recommit_elems);
            for (const std::uint64_t id : recommit) {
              const std::span<const VertexId> set(
                  ckpt.elements.data() + restore_starts[id], ckpt.lengths[id]);
              EIM_CHECK_MSG(shards[d]->try_commit(assigned[d].size(), set),
                            "failover restore: set did not fit reserved capacity");
              owner_of[id] = d;
              slot_of[id] = assigned[d].size();
              assigned[d].push_back(id);
            }
            shards[d]->set_num_sets(assigned[d].size());
            devices[d]->transfer_to_device(
                "checkpoint restore",
                recommit_elems * sizeof(VertexId) +
                    recommit.size() * sizeof(std::uint32_t));
          }
          if (!fresh.empty()) {
            samplers[d]->sample_assigned(*shards[d], fresh);
            for (const std::uint64_t id : fresh) {
              owner_of[id] = d;
              slot_of[id] = assigned[d].size();
              assigned[d].push_back(id);
            }
          }
        } catch (const support::DeviceLostError&) {
          decommission(d, todo, batch[d]);
        } catch (const support::DeviceFaultError&) {
          // Transient faults are retried inside the sampler; reaching here
          // means the retry budget is exhausted — retire the device.
          decommission(d, todo, batch[d]);
        }
      }
    }

    // All-reduce the per-vertex counts to the primary (ring reduce: each
    // surviving device ships its count array once).
    const std::uint64_t count_bytes =
        static_cast<std::uint64_t>(g.num_vertices()) * sizeof(std::uint32_t);
    for (std::size_t j = 1; j < alive.size(); ++j) {
      const double before = primary->timeline().transfer_seconds();
      primary->transfer_to_device("count all-reduce", count_bytes);
      communication += primary->timeline().transfer_seconds() - before;
      if (count_allreduces != nullptr) count_allreduces->add();
    }
    round_span.end(span_dev->timeline().total_seconds());
    phase_span.end(span_dev->timeline().total_seconds());
  };

  // Selection: exact greedy on the merged host mirror; modeled cost is the
  // max over devices' shard scans (they run concurrently) plus the per-pick
  // broadcast/return traffic.
  auto select = [&] {
    std::optional<support::metrics::ScopedPhase> scope;
    if (select_phase != nullptr) scope.emplace(*select_phase);
    gpusim::Device* const span_dev = primary;
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    support::trace::ScopedSpan phase_span(
        trace, span_pid, support::trace::SpanCategory::Phase, "select",
        span_dev->timeline().total_seconds());
    const VertexId n = g.num_vertices();

    // Merge shard mirrors through the owner/slot maps (id % D striping in
    // the fault-free case, arbitrary after failover).
    const std::uint64_t num_sets = sampled_global;
    std::vector<std::uint32_t> lengths(num_sets);
    std::vector<std::uint64_t> starts(num_sets + 1, 0);
    for (std::uint64_t i = 0; i < num_sets; ++i) {
      lengths[i] = shards[owner_of[i]]->set_length(slot_of[i]);
      starts[i + 1] = starts[i] + lengths[i];
    }
    std::vector<VertexId> flat(starts[num_sets]);
    for (std::uint64_t i = 0; i < num_sets; ++i) {
      shards[owner_of[i]]->decode_set(
          slot_of[i], std::span<VertexId>(flat.data() + starts[i], lengths[i]));
    }

    std::vector<std::uint32_t> counts(n, 0);
    for (const std::uint32_t d : alive) {
      for (VertexId v = 0; v < n; ++v) counts[v] += shards[d]->counts()[v];
    }

    // Inverted index for the exact greedy.
    std::vector<std::uint64_t> index_offsets(static_cast<std::size_t>(n) + 1, 0);
    for (const VertexId v : flat) ++index_offsets[v + 1];
    for (VertexId v = 0; v < n; ++v) index_offsets[v + 1] += index_offsets[v];
    std::vector<std::uint64_t> index_sets(flat.size());
    {
      std::vector<std::uint64_t> cursor(index_offsets.begin(), index_offsets.end() - 1);
      for (std::uint64_t i = 0; i < num_sets; ++i) {
        for (std::uint64_t p = starts[i]; p < starts[i + 1]; ++p) {
          index_sets[cursor[flat[p]]++] = i;
        }
      }
    }

    const auto& spec = primary->spec();
    const auto g_lat = static_cast<std::uint64_t>(spec.costs.global_latency);
    const auto a_lat = static_cast<std::uint64_t>(spec.costs.atomic_global);
    const std::uint64_t units = spec.max_resident_threads();

    // Per-device running aggregates for the scan cost.
    std::vector<std::uint64_t> shard_sets(num_devices, 0);
    std::vector<std::uint64_t> shard_search(num_devices, 0);
    for (std::uint64_t i = 0; i < num_sets; ++i) {
      shard_sets[owner_of[i]]++;
      shard_search[owner_of[i]] += binsearch_probes(lengths[i]) * g_lat;
    }

    std::vector<std::uint8_t> covered(num_sets, 0);
    std::vector<std::uint8_t> chosen(n, 0);
    imm::SelectionResult sel;
    sel.seeds.reserve(effective.k);

    // Per-pick modeled cost: devices scan their shards concurrently, then
    // the primary broadcasts the pick and gathers coverage deltas. Charged
    // once per pick — including degenerate tail picks, which still launch
    // the kernel and round-trip the (zero-gain) pick.
    const auto charge_pick = [&](const std::vector<std::uint64_t>& shard_dec) {
      double pick_seconds = 0.0;
      for (const std::uint32_t d : alive) {
        if (shard_sets[d] == 0) continue;
        const std::uint64_t total =
            shard_sets[d] * g_lat + shard_search[d] + shard_dec[d];
        const std::uint64_t used =
            std::max<std::uint64_t>(1, std::min(units, shard_sets[d]));
        pick_seconds = std::max(
            pick_seconds, spec.costs.kernel_launch_us * 1e-6 +
                              spec.cycles_to_seconds(static_cast<double>(total / used)));
      }
      primary->timeline().add(gpusim::SegmentKind::Kernel, "eim::multi_update",
                              pick_seconds);
      const double before = primary->timeline().transfer_seconds();
      for (std::size_t j = 1; j < alive.size(); ++j) {
        primary->transfer_to_device("pick broadcast", sizeof(VertexId));
        primary->transfer_to_host("coverage delta", sizeof(std::uint64_t));
        if (pick_broadcasts != nullptr) pick_broadcasts->add();
      }
      communication += primary->timeline().transfer_seconds() - before;
    };
    const std::vector<std::uint64_t> no_decrements(num_devices, 0);

    // CELF-style lazy arg-max over the merged counts; bit-identical to the
    // linear reference scan (see lazy_greedy.hpp for the tie-break proof).
    LazyArgMaxHeap heap{std::span<const std::uint32_t>(counts)};

    for (std::uint32_t pick = 0; pick < effective.k; ++pick) {
      VertexId best = graph::kInvalidVertex;
      std::uint32_t best_count = 0;
      if (!heap.pop_best(counts, chosen, best, best_count)) {
        // Degenerate tail: every set is covered but picks remain. Charge
        // the per-pick kernel + broadcast round for each filler so the
        // modeled time reflects k rounds like the unsaturated path.
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

      std::vector<std::uint64_t> shard_dec(num_devices, 0);
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

  // Round-boundary checkpointing: merge the shard mirrors back into global
  // sample-id order (through the owner/slot maps, so failover relayouts
  // don't matter) and snapshot, exactly like the single-device pipeline.
  std::function<void(const imm::FrameworkRoundState&)> on_round;
  if (!options.checkpoint_dir.empty()) {
    on_round = [&](const imm::FrameworkRoundState& fr) {
      CheckpointState ckpt;
      ckpt.rng_seed = effective.rng_seed;
      ckpt.num_vertices = g.num_vertices();
      ckpt.num_edges = g.num_edges();
      ckpt.k = effective.k;
      ckpt.epsilon = effective.epsilon;
      ckpt.ell = effective.ell;
      ckpt.model = static_cast<std::uint8_t>(model);
      ckpt.log_encode = options.log_encode;
      ckpt.eliminate_sources = effective.eliminate_sources;
      ckpt.draw_mode = static_cast<std::uint8_t>(options.draw_mode);
      ckpt.num_devices = num_devices;
      ckpt.round = fr;
      ckpt.lengths.resize(sampled_global);
      std::uint64_t total = 0;
      for (std::uint64_t i = 0; i < sampled_global; ++i) {
        ckpt.lengths[i] = shards[owner_of[i]]->set_length(slot_of[i]);
        total += ckpt.lengths[i];
      }
      ckpt.elements.resize(total);
      std::uint64_t at = 0;
      for (std::uint64_t i = 0; i < sampled_global; ++i) {
        shards[owner_of[i]]->decode_set(
            slot_of[i], std::span<VertexId>(ckpt.elements.data() + at, ckpt.lengths[i]));
        at += ckpt.lengths[i];
      }
      ckpt.singletons_discarded = restored_singletons;
      for (const std::uint32_t d : alive) {
        ckpt.singletons_discarded += samplers[d]->singletons_discarded();
      }
      double max_kernel = 0.0;
      for (gpusim::Device* d : devices) {
        max_kernel = std::max(max_kernel, d->timeline().kernel_seconds());
      }
      ckpt.kernel_seconds = std::max(max_kernel, primary->timeline().kernel_seconds());
      ckpt.transfer_seconds = primary->timeline().transfer_seconds();
      ckpt.allocation_seconds = primary->timeline().allocation_seconds();
      ckpt.backoff_seconds = primary->timeline().backoff_seconds();
      if (options.metrics != nullptr) {
        std::ostringstream snapshot;
        support::JsonWriter w(snapshot);
        options.metrics->write_json(w);
        ckpt.metrics_json = snapshot.str();
      }
      const std::uint64_t bytes = save_checkpoint(options.checkpoint_dir, ckpt);
      if (options.metrics != nullptr) {
        options.metrics->counter("checkpoint.writes").add();
        options.metrics->counter("checkpoint.bytes_written").add(bytes);
      }
      if (trace != nullptr) {
        if (const auto pid = trace->pid_of(primary); pid.has_value()) {
          trace->instant(*pid, "checkpoint.write",
                         "num_sets=" + std::to_string(sampled_global),
                         primary->timeline().total_seconds());
        }
      }
    };
  }

  const imm::FrameworkOutcome outcome = imm::run_imm_framework(
      g.num_vertices(), effective, sample_to, select,
      options.resume != nullptr ? &options.resume->round : nullptr, on_round);

  primary->transfer_to_host("seed set",
                            outcome.final_selection.seeds.size() * sizeof(VertexId));

  // Fold every device's ledger — including dead devices' pre-loss work —
  // into the trace as leaf spans on its own track.
  if (trace != nullptr) {
    for (std::uint32_t d = 0; d < num_devices; ++d) {
      if (const auto pid = trace->pid_of(devices[d]); pid.has_value()) {
        gpusim::record_timeline_spans(*trace, *pid, devices[d]->timeline());
      }
    }
  }

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = sampled_global;
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.singletons_discarded = restored_singletons;
  for (const std::uint32_t d : alive) {
    result.total_elements += shards[d]->total_elements();
    result.singletons_discarded += samplers[d]->singletons_discarded();
    result.rrr_bytes += shards[d]->stored_bytes();
    result.rrr_raw_bytes += shards[d]->raw_equivalent_bytes();
  }
  for (std::uint32_t d = 0; d < num_devices; ++d) {
    result.peak_device_bytes =
        std::max(result.peak_device_bytes, devices[d]->memory().peak_bytes());
  }
  // Same conditional-coverage correction as the single-device pipeline.
  const double kept_fraction =
      static_cast<double>(result.num_sets) /
      static_cast<double>(result.num_sets + result.singletons_discarded);
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;

  // Modeled wall time: devices run concurrently — the slowest device's
  // kernel time governs (dead devices' pre-loss work included), plus the
  // primary's transfers (reductions, broadcasts, redistribution) which are
  // serialized on its copy engine here, plus any retry backoff it absorbed.
  double max_kernel = 0.0;
  for (gpusim::Device* d : devices) {
    max_kernel = std::max(max_kernel, d->timeline().kernel_seconds());
  }
  result.kernel_seconds = std::max(max_kernel, primary->timeline().kernel_seconds());
  result.transfer_seconds = primary->timeline().transfer_seconds();
  result.communication_seconds = communication;
  result.device_seconds = result.kernel_seconds + result.transfer_seconds +
                          primary->timeline().allocation_seconds() +
                          primary->timeline().backoff_seconds();
  result.device_mallocs = 0;

  if (options.metrics != nullptr) {
    options.metrics->counter("imm.estimation_rounds").add(result.estimation_rounds);
    options.metrics->gauge("imm.theta").set(result.num_sets);
    options.metrics->phase("multi.communication").add_modeled(communication);
    for (std::uint32_t d = 0; d < num_devices; ++d) {
      const gpusim::FaultStats now = devices[d]->fault_stats();
      options.metrics->counter("fault.kernel_faults_injected")
          .add(now.kernel_faults - faults_before[d].kernel_faults);
      options.metrics->counter("fault.transfer_faults_injected")
          .add(now.transfer_faults - faults_before[d].transfer_faults);
      options.metrics->counter("fault.alloc_oom_injected")
          .add(now.alloc_ooms - faults_before[d].alloc_ooms);
      options.metrics->counter("fault.device_lost")
          .add(now.device_losses - faults_before[d].device_losses);
    }
  }
  return result;
}

}  // namespace eim::eim_impl
