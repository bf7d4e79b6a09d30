#include "eim/eim/multi_node.hpp"

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

MultiNodeResult run_eim_cluster(gpusim::Cluster& cluster, const graph::Graph& g,
                                graph::DiffusionModel model,
                                const imm::ImmParams& params, const EimOptions& options,
                                const MultiNodeOptions& node_options) {
  const std::uint32_t num_nodes = cluster.num_nodes();
  const std::uint32_t devices_per_node = cluster.spec().node.num_devices;
  const std::uint32_t num_flat = num_nodes * devices_per_node;
  EIM_CHECK_MSG(node_options.quorum >= 1, "quorum must be at least 1");
  EIM_CHECK_MSG(node_options.quorum <= num_nodes,
                "quorum cannot exceed the cluster's node count");

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  MultiNodeResult result;
  result.num_nodes = num_nodes;
  result.devices_per_node = devices_per_node;
  result.network_raw_bytes = g.csc_bytes();
  std::uint64_t network_bytes = result.network_raw_bytes;
  if (options.log_encode) network_bytes = encoding::PackedCsc::packed_bytes_for(g);
  result.network_bytes = network_bytes;

  // Nodes the previous life of this cluster already killed stay out of the
  // run; everything below keys off `alive`, never off raw indices.
  std::vector<std::uint32_t> alive;
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    if (!cluster.node(n).lost()) alive.push_back(n);
  }
  EIM_CHECK_MSG(!alive.empty(), "cluster has no alive nodes");
  EIM_CHECK_MSG(alive.size() >= node_options.quorum,
                "cluster is below quorum before the run starts");

  const auto device_at = [&](std::uint32_t f) -> gpusim::Device& {
    return cluster.node(f / devices_per_node).device(f % devices_per_node);
  };

  std::vector<gpusim::FaultStats> faults_before(num_flat);
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    faults_before[f] = device_at(f).fault_stats();
  }

  // One trace track per device plus one for the cluster fabric; collective
  // instants ride on the fabric track, node.lost on the dying node's track.
  support::trace::TraceRecorder* trace = options.trace;
  std::uint32_t cluster_pid = 0;
  if (trace != nullptr) {
    for (const std::uint32_t n : alive) {
      for (std::uint32_t d = 0; d < devices_per_node; ++d) {
        trace->register_process(
            "node " + std::to_string(n) + " device " + std::to_string(d),
            &cluster.node(n).device(d));
      }
    }
    cluster_pid = trace->register_process("cluster network", &cluster);
  }

  support::metrics::MetricsRegistry* metrics = options.metrics;
  support::metrics::Histogram* backoff_hist =
      metrics != nullptr ? &metrics->histogram("collective.backoff_seconds") : nullptr;
  support::metrics::PhaseTimer* sample_phase =
      metrics != nullptr ? &metrics->phase("sample") : nullptr;
  support::metrics::PhaseTimer* select_phase =
      metrics != nullptr ? &metrics->phase("select") : nullptr;

  // Per flattened device f = node*D + d: graph copy + shard + sampler.
  cluster.timeline().reset();
  std::vector<gpusim::DeviceBuffer<std::uint8_t>> network_charges(num_flat);
  std::vector<std::unique_ptr<DeviceRrrCollection>> shards(num_flat);
  std::vector<std::unique_ptr<EimSampler>> samplers(num_flat);
  for (const std::uint32_t n : alive) {
    for (std::uint32_t d = 0; d < devices_per_node; ++d) {
      const std::uint32_t f = n * devices_per_node + d;
      gpusim::Device& dev = device_at(f);
      dev.timeline().reset();
      dev.memory().reset_peak();
      network_charges[f] = dev.alloc<std::uint8_t>(network_bytes);
      dev.transfer_to_device("network CSC", network_bytes);
      shards[f] = std::make_unique<DeviceRrrCollection>(dev, g.num_vertices(),
                                                        options.log_encode);
      samplers[f] = std::make_unique<EimSampler>(dev, g, model, effective, options);
    }
  }

  // Failover bookkeeping, one tier up from multi_gpu: `assigned[f]` lists
  // flattened device f's sample ids in local-slot order; owner_of/slot_of
  // invert the mapping per global sample id. Fault-free, the layout is the
  // node = id % N, device = (id / N) % D striping; after a node loss the
  // survivors absorb the dead shards' ids at whatever slots come next.
  std::vector<std::vector<std::uint64_t>> assigned(num_flat);
  std::vector<std::uint32_t> owner_of;
  std::vector<std::uint64_t> slot_of;

  gpusim::Device* primary = &cluster.node(alive.front()).device(0);
  std::uint64_t sampled_global = 0;
  std::uint64_t requested_global = 0;
  bool quorum_lost = false;

  // Checkpoint-restored prefix. Kept at run level (not parked on a sampler)
  // so the restored singleton total survives the death of any node, and so
  // failover can re-commit restored sets from the snapshot replica instead
  // of re-sampling them — re-sampling would count their singleton draws a
  // second time on top of the restored total.
  std::uint64_t num_restored = 0;
  std::uint64_t restored_singletons = 0;
  std::vector<std::uint64_t> restore_starts;

  const auto flat_for = [&](std::uint64_t id) -> std::uint32_t {
    const std::uint32_t n = alive[id % alive.size()];
    const auto d =
        static_cast<std::uint32_t>((id / alive.size()) % devices_per_node);
    return n * devices_per_node + d;
  };

  // Decommission node n: respill every sample id its devices owned (plus
  // the in-flight batches) into `todo`, free its device-side state, charge
  // the reshard manifest transfer to the survivors, and enforce quorum.
  const auto decommission = [&](std::uint32_t n, std::vector<std::uint64_t>& todo,
                                const std::vector<std::uint64_t>& in_flight) {
    cluster.mark_node_lost(n);
    std::uint64_t respilled = in_flight.size();
    for (std::uint32_t d = 0; d < devices_per_node; ++d) {
      const std::uint32_t f = n * devices_per_node + d;
      respilled += assigned[f].size();
      for (const std::uint64_t id : assigned[f]) todo.push_back(id);
      assigned[f].clear();
      // Teardown is safe on a lost device: deallocation stays permitted.
      samplers[f].reset();
      shards[f].reset();
      network_charges[f] = gpusim::DeviceBuffer<std::uint8_t>{};
    }
    for (const std::uint64_t id : in_flight) todo.push_back(id);
    alive.erase(std::find(alive.begin(), alive.end(), n));
    result.failed_nodes.push_back(n);
    result.reshard_samples += respilled;
    if (trace != nullptr) {
      if (const auto pid = trace->pid_of(&cluster.node(n).device(0));
          pid.has_value()) {
        trace->instant(*pid, "node.lost", "respilled=" + std::to_string(respilled),
                       cluster.node(n).device(0).timeline().total_seconds());
      }
    }
    if (alive.empty()) {
      throw support::ClusterQuorumError("every node lost", 0, node_options.quorum);
    }
    primary = &cluster.node(alive.front()).device(0);
    // Survivors receive the dead shard's sample-id manifest. Charged as a
    // plain network transfer — recovery traffic must not consume collective
    // ordinals, or fault scripts keyed to them would shift under failover.
    const std::uint64_t bytes = respilled * sizeof(std::uint64_t);
    if (bytes > 0) cluster.charge_transfer("reshard", bytes, alive);
    if (metrics != nullptr) {
      metrics->counter("cluster.node_lost").add();
      metrics->counter("cluster.reshard_samples").add(respilled);
    }
    if (trace != nullptr && bytes > 0) {
      trace->instant(cluster_pid, "reshard", "bytes=" + std::to_string(bytes),
                     cluster.timeline().total_seconds());
    }
    if (alive.size() < node_options.quorum) {
      if (!node_options.node_degrade) {
        throw support::ClusterQuorumError(
            "node " + std::to_string(n) + " lost",
            static_cast<std::uint32_t>(alive.size()), node_options.quorum);
      }
      if (!quorum_lost) {
        quorum_lost = true;
        result.degraded = true;
        if (metrics != nullptr) metrics->counter("cluster.degraded").add();
        if (trace != nullptr) {
          trace->instant(cluster_pid, "cluster.degraded",
                         "alive=" + std::to_string(alive.size()) +
                             " quorum=" + std::to_string(node_options.quorum),
                         cluster.timeline().total_seconds());
        }
      }
    }
  };

  // Run one collective under the retry policy. Transient link faults back
  // off on the cluster's modeled clock and re-attempt; exhausting the
  // budget escalates the flaky link's node to dead (timeout => node-dead),
  // surfacing as the same NodeLostError a scripted loss produces.
  const auto run_collective = [&](const std::string& label, auto&& op) -> double {
    // The collective occupies the fabric track as a Collective span (non-leaf
    // — the cluster timeline's own segments are folded in as leaves at the
    // end of the run, and a leaf here would double-count them). Each alive
    // participant sends a flow arrow from its device-0 track into the span,
    // which is how the export shows who fed the barrier. If the op unwinds
    // (node loss), the ScopedSpan closes zero-length at the start point and
    // the arrows stay dangling at their senders — both mark the fault site.
    support::trace::ScopedSpan span(trace, cluster_pid,
                                    support::trace::SpanCategory::Collective, label,
                                    cluster.timeline().total_seconds());
    std::vector<std::uint64_t> flow_ids;
    if (trace != nullptr) {
      for (const std::uint32_t n : alive) {
        const auto pid = trace->pid_of(&cluster.node(n).device(0));
        if (!pid.has_value()) continue;
        const std::uint64_t flow_id = trace->new_flow_id();
        trace->flow_start(*pid, flow_id, label,
                          cluster.node(n).device(0).timeline().total_seconds());
        flow_ids.push_back(flow_id);
      }
    }
    try {
      const double cost = support::retry(
          node_options.collective_retry, [&] { return op(); },
          [&](std::uint32_t retry_index, double backoff_seconds,
              const support::DeviceFaultError&) {
            ++result.collective_retries;
            cluster.charge_backoff(label + " backoff", backoff_seconds);
            if (metrics != nullptr) {
              metrics->counter("collective.retries").add();
              backoff_hist->observe_duration(backoff_seconds);
            }
            if (trace != nullptr) {
              trace->instant(cluster_pid, "collective.retry",
                             label + " retry=" + std::to_string(retry_index),
                             cluster.timeline().total_seconds());
            }
          });
      const double end_ts = cluster.timeline().total_seconds();
      if (trace != nullptr) {
        for (const std::uint64_t flow_id : flow_ids) {
          trace->flow_end(cluster_pid, flow_id, label, end_ts);
        }
      }
      span.end(end_ts);
      return cost;
    } catch (const support::LinkFaultError& e) {
      cluster.mark_node_lost(e.node());
      throw support::NodeLostError(label + ": link retry budget exhausted",
                                   e.node());
    }
  };

  // Regenerate the outstanding sample ids on the survivors: stripe over the
  // current alive set, absorb node deaths (a device-tier loss retires the
  // whole node — a host whose GPU died is drained, not limped), and loop
  // until every id is committed somewhere.
  const auto regenerate = [&](std::vector<std::uint64_t>& todo) {
    while (!todo.empty()) {
      std::sort(todo.begin(), todo.end());
      std::vector<std::vector<std::uint64_t>> batch(num_flat);
      for (const std::uint64_t id : todo) batch[flat_for(id)].push_back(id);
      todo.clear();

      const std::vector<std::uint32_t> round = alive;  // decommission mutates alive
      for (const std::uint32_t n : round) {
        bool node_failed = false;
        for (std::uint32_t d = 0; d < devices_per_node && !node_failed; ++d) {
          const std::uint32_t f = n * devices_per_node + d;
          if (batch[f].empty()) continue;
          try {
            // Ids inside the restored prefix re-commit straight from the
            // snapshot (their singleton draws already sit in the restored
            // total); only fresh ids re-sample from index-keyed streams.
            std::vector<std::uint64_t> recommit;
            std::vector<std::uint64_t> fresh;
            for (const std::uint64_t id : batch[f]) {
              (id < num_restored ? recommit : fresh).push_back(id);
            }
            if (!recommit.empty()) {
              const CheckpointState& ckpt = *options.resume;
              std::uint64_t recommit_elems = 0;
              for (const std::uint64_t id : recommit) {
                recommit_elems += ckpt.lengths[id];
              }
              shards[f]->reserve(assigned[f].size() + recommit.size(),
                                 shards[f]->total_elements() + recommit_elems);
              for (const std::uint64_t id : recommit) {
                const std::span<const VertexId> set(
                    ckpt.elements.data() + restore_starts[id], ckpt.lengths[id]);
                EIM_CHECK_MSG(shards[f]->try_commit(assigned[f].size(), set),
                              "reshard restore: set did not fit reserved capacity");
                owner_of[id] = f;
                slot_of[id] = assigned[f].size();
                assigned[f].push_back(id);
              }
              shards[f]->set_num_sets(assigned[f].size());
              device_at(f).transfer_to_device(
                  "checkpoint restore",
                  recommit_elems * sizeof(VertexId) +
                      recommit.size() * sizeof(std::uint32_t));
            }
            if (!fresh.empty()) {
              samplers[f]->sample_assigned(*shards[f], fresh);
              for (const std::uint64_t id : fresh) {
                owner_of[id] = f;
                slot_of[id] = assigned[f].size();
                assigned[f].push_back(id);
              }
            }
          } catch (const support::DeviceLostError&) {
            node_failed = true;
          } catch (const support::DeviceFaultError&) {
            // Transient faults are retried inside the sampler; reaching
            // here means the retry budget is exhausted — retire the node.
            node_failed = true;
          }
          if (node_failed) {
            std::vector<std::uint64_t> in_flight;
            for (std::uint32_t d2 = d; d2 < devices_per_node; ++d2) {
              const std::uint32_t f2 = n * devices_per_node + d2;
              in_flight.insert(in_flight.end(), batch[f2].begin(), batch[f2].end());
            }
            decommission(n, todo, in_flight);
          }
        }
      }
    }
  };

  // Distribute the (packed) network: one broadcast over the cluster fabric
  // (each device's PCIe staging was charged at construction). A node that
  // dies this early — collective ordinal 0 — is decommissioned with an
  // empty shard and the broadcast re-runs on the survivors.
  for (;;) {
    try {
      run_collective("network broadcast", [&] {
        return cluster.broadcast("network broadcast", network_bytes, alive);
      });
      break;
    } catch (const support::NodeLostError& e) {
      std::vector<std::uint64_t> todo;
      decommission(e.node(), todo, {});
      regenerate(todo);
    }
  }

  // Resume: redistribute the restored global sets over THIS run's alive set
  // — the writing run may have used any topology (single device, D GPUs,
  // a different node count); because the snapshot stores sets in global
  // sample-id order and streams are index-keyed, any layout produces the
  // identical answer.
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
    std::vector<std::uint64_t> shard_sets(num_flat, 0);
    std::vector<std::uint64_t> shard_elems(num_flat, 0);
    for (std::uint64_t i = 0; i < restored; ++i) {
      const std::uint32_t f = flat_for(i);
      ++shard_sets[f];
      shard_elems[f] += ckpt.lengths[i];
    }
    for (std::uint32_t f = 0; f < num_flat; ++f) {
      if (shard_sets[f] == 0) continue;
      shards[f]->reserve(shard_sets[f], shard_elems[f]);
    }
    for (std::uint64_t i = 0; i < restored; ++i) {
      const std::uint32_t f = flat_for(i);
      const std::span<const VertexId> set(ckpt.elements.data() + starts[i],
                                          ckpt.lengths[i]);
      EIM_CHECK_MSG(shards[f]->try_commit(assigned[f].size(), set),
                    "checkpoint restore: set did not fit reserved shard capacity");
      owner_of[i] = f;
      slot_of[i] = assigned[f].size();
      assigned[f].push_back(i);
    }
    for (std::uint32_t f = 0; f < num_flat; ++f) {
      if (shard_sets[f] == 0) continue;
      shards[f]->set_num_sets(assigned[f].size());
      device_at(f).transfer_to_device("checkpoint restore",
                                      shard_elems[f] * sizeof(VertexId) +
                                          shard_sets[f] * sizeof(std::uint32_t));
    }
    sampled_global = restored;
    restored_singletons = ckpt.singletons_discarded;
    primary->timeline().add(gpusim::SegmentKind::Kernel, "resume carry-over",
                            ckpt.kernel_seconds);
    primary->timeline().add(gpusim::SegmentKind::Transfer, "resume carry-over",
                            ckpt.transfer_seconds);
    primary->timeline().add(gpusim::SegmentKind::Allocation, "resume carry-over",
                            ckpt.allocation_seconds);
    primary->timeline().add(gpusim::SegmentKind::Backoff, "resume carry-over",
                            ckpt.backoff_seconds);
    if (metrics != nullptr) {
      if (!ckpt.metrics_json.empty()) {
        support::metrics::restore_registry_json(*metrics, ckpt.metrics_json);
      }
      metrics->counter("checkpoint.resume_loaded").add();
    }
    if (trace != nullptr) {
      if (const auto pid = trace->pid_of(primary); pid.has_value()) {
        trace->instant(*pid, "checkpoint.resume",
                       "num_sets=" + std::to_string(restored),
                       primary->timeline().total_seconds());
      }
    }
  }
  requested_global = sampled_global;
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    if (shards[f] != nullptr) shards[f]->attach_metrics(metrics);
  }

  // Sampling: extend the committed prefix to `target`, then combine the
  // per-vertex counts with one allreduce over the alive nodes. Once quorum
  // is lost (degrade mode), the committed prefix is final — further theta
  // extensions are skipped and tallied as the shortfall.
  std::uint64_t sample_round = 0;
  auto sample_to = [&](std::uint64_t target) {
    requested_global = std::max(requested_global, target);
    if (target <= sampled_global || quorum_lost) return;
    std::optional<support::metrics::ScopedPhase> scope;
    if (sample_phase != nullptr) scope.emplace(*sample_phase);
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

    // Regenerate-then-reduce loop: a node lost during the count allreduce
    // respills its shard, which must be regenerated before the reduce can
    // complete over the survivors.
    for (;;) {
      regenerate(todo);
      try {
        const std::uint64_t count_bytes =
            static_cast<std::uint64_t>(g.num_vertices()) * sizeof(std::uint32_t);
        run_collective("count allreduce", [&] {
          return cluster.allreduce("count allreduce", count_bytes, alive);
        });
        if (metrics != nullptr) metrics->counter("cluster.count_allreduces").add();
        break;
      } catch (const support::NodeLostError& e) {
        decommission(e.node(), todo, {});
      }
    }
    round_span.end(span_dev->timeline().total_seconds());
    phase_span.end(span_dev->timeline().total_seconds());
  };

  // Selection: exact greedy on the merged host mirror; modeled cost is the
  // max over devices' shard scans (they run concurrently) plus one small
  // pick-exchange allreduce per pick (chosen vertex + coverage delta).
  auto select_once = [&] {
    std::optional<support::metrics::ScopedPhase> scope;
    if (select_phase != nullptr) scope.emplace(*select_phase);
    gpusim::Device* const span_dev = primary;
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    support::trace::ScopedSpan phase_span(
        trace, span_pid, support::trace::SpanCategory::Phase, "select",
        span_dev->timeline().total_seconds());
    const VertexId n = g.num_vertices();

    // Merge shard mirrors through the owner/slot maps.
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
    for (const std::uint32_t nd : alive) {
      for (std::uint32_t d = 0; d < devices_per_node; ++d) {
        const std::uint32_t f = nd * devices_per_node + d;
        for (VertexId v = 0; v < n; ++v) counts[v] += shards[f]->counts()[v];
      }
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
    // concurrently (the slowest governs), then the alive nodes exchange the
    // pick + coverage delta in one 12-byte allreduce. A node lost inside
    // that collective aborts this whole selection pass; the caller reshards
    // and restarts it — the merged mirror is rebuilt from regenerated,
    // bit-identical sets, so the restart picks the same seeds.
    const auto charge_pick = [&](const std::vector<std::uint64_t>& shard_dec) {
      double pick_seconds = 0.0;
      for (const std::uint32_t nd : alive) {
        for (std::uint32_t d = 0; d < devices_per_node; ++d) {
          const std::uint32_t f = nd * devices_per_node + d;
          if (shard_sets[f] == 0) continue;
          const std::uint64_t total =
              shard_sets[f] * g_lat + shard_search[f] + shard_dec[f];
          const std::uint64_t used =
              std::max<std::uint64_t>(1, std::min(units, shard_sets[f]));
          pick_seconds = std::max(
              pick_seconds, spec.costs.kernel_launch_us * 1e-6 +
                                spec.cycles_to_seconds(static_cast<double>(total / used)));
        }
      }
      primary->timeline().add(gpusim::SegmentKind::Kernel, "eim::multi_update",
                              pick_seconds);
      run_collective("pick exchange", [&] {
        return cluster.allreduce("pick exchange",
                                 sizeof(VertexId) + sizeof(std::uint64_t), alive);
      });
      if (metrics != nullptr) metrics->counter("cluster.pick_exchanges").add();
    };
    const std::vector<std::uint64_t> no_decrements(num_flat, 0);

    LazyArgMaxHeap heap{std::span<const std::uint32_t>(counts)};

    for (std::uint32_t pick = 0; pick < effective.k; ++pick) {
      VertexId best = graph::kInvalidVertex;
      std::uint32_t best_count = 0;
      if (!heap.pop_best(counts, chosen, best, best_count)) {
        // Degenerate tail: every set is covered but picks remain; each
        // filler still charges a pick round like the unsaturated path.
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

  // Selection with failover: a node death anywhere inside a selection pass
  // reshards + regenerates, then restarts the pass from scratch. The
  // restart is deterministic (identical merged mirror), so the only effect
  // is modeled recovery time.
  auto select = [&] {
    for (;;) {
      try {
        return select_once();
      } catch (const support::NodeLostError& e) {
        std::vector<std::uint64_t> todo;
        decommission(e.node(), todo, {});
        regenerate(todo);
      }
    }
  };

  // Round-boundary checkpointing: merge the shard mirrors back into global
  // sample-id order (through the owner/slot maps, so failover relayouts
  // don't matter) and snapshot — readable by any topology.
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
      ckpt.num_devices = num_flat;
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
      for (const std::uint32_t nd : alive) {
        for (std::uint32_t d = 0; d < devices_per_node; ++d) {
          ckpt.singletons_discarded +=
              samplers[nd * devices_per_node + d]->singletons_discarded();
        }
      }
      double max_kernel = 0.0;
      for (std::uint32_t f = 0; f < num_flat; ++f) {
        max_kernel = std::max(max_kernel, device_at(f).timeline().kernel_seconds());
      }
      ckpt.kernel_seconds = max_kernel;
      ckpt.transfer_seconds = primary->timeline().transfer_seconds() +
                              cluster.timeline().transfer_seconds();
      ckpt.allocation_seconds = primary->timeline().allocation_seconds();
      ckpt.backoff_seconds = primary->timeline().backoff_seconds() +
                             cluster.timeline().backoff_seconds();
      if (metrics != nullptr) {
        std::ostringstream snapshot;
        support::JsonWriter w(snapshot);
        metrics->write_json(w);
        ckpt.metrics_json = snapshot.str();
      }
      const std::uint64_t bytes = save_checkpoint(options.checkpoint_dir, ckpt);
      if (metrics != nullptr) {
        metrics->counter("checkpoint.writes").add();
        metrics->counter("checkpoint.bytes_written").add(bytes);
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

  // Fold every ledger — dead nodes' pre-loss work and the cluster fabric
  // included — into the trace as leaf spans on their own tracks.
  if (trace != nullptr) {
    for (std::uint32_t f = 0; f < num_flat; ++f) {
      if (const auto pid = trace->pid_of(&device_at(f)); pid.has_value()) {
        gpusim::record_timeline_spans(*trace, *pid, device_at(f).timeline());
      }
    }
    gpusim::record_timeline_spans(*trace, cluster_pid, cluster.timeline());
  }

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = sampled_global;
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.singletons_discarded = restored_singletons;
  for (const std::uint32_t nd : alive) {
    for (std::uint32_t d = 0; d < devices_per_node; ++d) {
      const std::uint32_t f = nd * devices_per_node + d;
      result.total_elements += shards[f]->total_elements();
      result.singletons_discarded += samplers[f]->singletons_discarded();
      result.rrr_bytes += shards[f]->stored_bytes();
      result.rrr_raw_bytes += shards[f]->raw_equivalent_bytes();
    }
  }
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    result.peak_device_bytes =
        std::max(result.peak_device_bytes, device_at(f).memory().peak_bytes());
  }
  if (quorum_lost) {
    result.degrade_shortfall_samples = requested_global - sampled_global;
    // Byte-denominated view of the same shortfall, so the top-level report
    // surfaces one uniform `degrade_shortfall_bytes` regardless of tier:
    // the missing samples priced at the committed sets' average stored size.
    if (result.num_sets > 0) {
      result.degrade_shortfall_bytes =
          result.degrade_shortfall_samples * (result.rrr_bytes / result.num_sets);
    }
  }
  // Same conditional-coverage correction as the single-device pipeline.
  const double kept_fraction =
      static_cast<double>(result.num_sets) /
      static_cast<double>(result.num_sets + result.singletons_discarded);
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;

  // Modeled wall time: devices run concurrently — the slowest device's
  // kernel time governs (dead nodes' pre-loss work included) — plus the
  // primary's PCIe transfers, plus the cluster network (collectives,
  // resharding, and collective retry backoff are all serialized on the
  // fabric here).
  double max_kernel = 0.0;
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    max_kernel = std::max(max_kernel, device_at(f).timeline().kernel_seconds());
  }
  result.kernel_seconds = max_kernel;
  result.transfer_seconds = primary->timeline().transfer_seconds();
  result.communication_seconds = cluster.timeline().transfer_seconds();
  result.device_seconds = result.kernel_seconds + result.transfer_seconds +
                          primary->timeline().allocation_seconds() +
                          primary->timeline().backoff_seconds() +
                          cluster.timeline().total_seconds();
  result.device_mallocs = 0;

  if (metrics != nullptr) {
    metrics->counter("imm.estimation_rounds").add(result.estimation_rounds);
    metrics->gauge("imm.theta").set(result.num_sets);
    metrics->phase("cluster.communication")
        .add_modeled(result.communication_seconds);
    for (std::uint32_t f = 0; f < num_flat; ++f) {
      const gpusim::FaultStats now = device_at(f).fault_stats();
      metrics->counter("fault.kernel_faults_injected")
          .add(now.kernel_faults - faults_before[f].kernel_faults);
      metrics->counter("fault.transfer_faults_injected")
          .add(now.transfer_faults - faults_before[f].transfer_faults);
      metrics->counter("fault.alloc_oom_injected")
          .add(now.alloc_ooms - faults_before[f].alloc_ooms);
      metrics->counter("fault.device_lost")
          .add(now.device_losses - faults_before[f].device_losses);
    }
    metrics->counter("cluster.link_faults_injected")
        .add(cluster.fault_stats().link_faults);
  }
  return result;
}

}  // namespace eim::eim_impl
