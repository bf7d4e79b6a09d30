#include "eim/eim/pipeline.hpp"

#include <memory>
#include <utility>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/eim/tiered_store.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/retry.hpp"
#include "eim/support/thread_pool.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

namespace {

/// Retry a transfer under the run's policy, charging deterministic backoff
/// to the device timeline and counting attempts into `retry.attempts`.
template <typename Fn>
void retry_transfer(gpusim::Device& device, const EimOptions& options,
                    const char* label, Fn&& fn) {
  support::retry(
      options.retry, std::forward<Fn>(fn),
      [&](std::uint32_t /*attempt*/, double backoff,
          const support::DeviceFaultError&) {
        device.charge_backoff(std::string(label) + " retry", backoff);
        if (options.metrics != nullptr) {
          options.metrics->counter("retry.attempts").add();
          options.metrics->histogram("retry.backoff_seconds").observe_duration(backoff);
        }
      });
}

/// Detach pool instrumentation on scope exit: the device outlives the run,
/// so its hooks must not dangle into the caller's registry.
struct PoolMetricsGuard {
  explicit PoolMetricsGuard(gpusim::Device& device) : device_(&device) {}
  ~PoolMetricsGuard() { device_->memory().attach_metrics(nullptr, nullptr); }
  PoolMetricsGuard(const PoolMetricsGuard&) = delete;
  PoolMetricsGuard& operator=(const PoolMetricsGuard&) = delete;

 private:
  gpusim::Device* device_;
};

/// Detach the global pool's dispatch wall timer on scope exit — the pool
/// outlives the run, and the WallProfile belongs to the caller.
struct PoolDispatchGuard {
  explicit PoolDispatchGuard(support::profiler::WallProfile* profile) {
    if (profile != nullptr) {
      support::ThreadPool::global().attach_dispatch_timer(
          &profile->timer("pool.dispatch"));
    }
  }
  ~PoolDispatchGuard() { support::ThreadPool::global().attach_dispatch_timer(nullptr); }
  PoolDispatchGuard(const PoolDispatchGuard&) = delete;
  PoolDispatchGuard& operator=(const PoolDispatchGuard&) = delete;
};

}  // namespace

EimResult run_eim(gpusim::Device& device, const graph::Graph& g,
                  graph::DiffusionModel model, const imm::ImmParams& params,
                  const EimOptions& options) {
  device.timeline().reset();
  device.memory().reset_peak();
  const gpusim::FaultStats faults_before = device.fault_stats();

  support::metrics::MetricsRegistry* reg = options.metrics;
  support::trace::TraceRecorder* trace = options.trace;
  // Find (or register) this device's trace track. A caller that already
  // named the track — eim_cli, the multi-GPU driver — wins; instrumentation
  // down the stack (sampler waves) resolves the pid through pid_of(&device).
  std::uint32_t trace_pid = 0;
  if (trace != nullptr) {
    const auto existing = trace->pid_of(&device);
    trace_pid =
        existing.has_value() ? *existing : trace->register_process("device 0", &device);
  }
  support::profiler::WallProfile* profile = options.profile;
  PoolMetricsGuard pool_guard(device);
  PoolDispatchGuard dispatch_guard(profile);
  if (reg != nullptr) {
    device.memory().attach_metrics(&reg->gauge("device.peak_bytes"),
                                   &reg->counter("device.alloc_events"));
  }

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  EimResult result;
  result.network_raw_bytes = g.csc_bytes();

  // An empty network has nothing to sample and no seeds to pick; bail out
  // before the sampler touches its (empty) per-block scratch. Without this
  // guard, generate() would draw source 0 from next_below(0) and stamp an
  // empty epoch array out of bounds.
  if (g.num_vertices() == 0) {
    result.network_bytes = result.network_raw_bytes;
    return result;
  }

  // Stage the network on the device: packed (§3.1) or verbatim.
  std::uint64_t network_bytes = result.network_raw_bytes;
  if (options.log_encode) network_bytes = encoding::PackedCsc::packed_bytes_for(g);
  result.network_bytes = network_bytes;
  auto network_charge = device.alloc<std::uint8_t>(network_bytes);
  retry_transfer(device, options, "network CSC",
                 [&] { device.transfer_to_device("network CSC", network_bytes); });

  DeviceRrrCollection collection(device, g.num_vertices(), options.log_encode);
  EimSampler sampler(device, g, model, effective, options);
  GpuSeedSelector selector(device, options.scan);
  selector.attach_metrics(reg);
  selector.attach_profile(profile);
  collection.attach_profile(profile);

  // Tiered spill hierarchy: memory pressure evicts cold sets downward
  // (compressed host, then disk) instead of stopping θ refinement; torn
  // disk blocks are quarantined and rebuilt through deterministic
  // resampling, so the final seeds are bit-identical to an unconstrained
  // run (docs/RESILIENCE.md "Memory-pressure tiers").
  std::unique_ptr<TieredRrrStore> spill_store;
  if (options.spill.policy != SpillPolicy::Off) {
    TieredStoreOptions store_options;
    store_options.host_budget_bytes = options.spill.host_budget_bytes;
    store_options.dir = options.spill.dir;
    store_options.sets_per_block = options.spill.sets_per_block;
    store_options.staging_blocks = options.spill.staging_blocks;
    store_options.retry = options.retry;
    spill_store = std::make_unique<TieredRrrStore>(device, store_options);
    spill_store->attach_metrics(reg);
    spill_store->attach_profile(profile);
    if (trace != nullptr) spill_store->attach_trace(trace, trace_pid);
    // Single-device run: local slot == global sample id, so the sampler can
    // regenerate any spilled set directly.
    spill_store->set_resample_hook(
        [&sampler](std::uint64_t set_id, std::vector<graph::VertexId>& out) {
          sampler.resample_set(set_id, out);
        });
    collection.attach_spill(spill_store.get(), options.spill.device_budget_bytes);
  }

  // Resume: rebuild the committed collection and the run's carried state
  // before wiring commit instrumentation, so restored commits are not
  // double-counted on top of the merged metrics snapshot below.
  if (options.resume != nullptr) {
    const CheckpointState& ckpt = *options.resume;
    validate_checkpoint(ckpt, g, model, params, options);
    restore_collection(collection, ckpt);
    sampler.restore_singletons(ckpt.singletons_discarded);
    // The restored R travels back over PCIe like any staged input.
    const std::uint64_t restore_bytes =
        ckpt.elements.size() * sizeof(graph::VertexId) +
        ckpt.lengths.size() * sizeof(std::uint32_t);
    retry_transfer(device, options, "checkpoint restore", [&] {
      device.transfer_to_device("checkpoint restore", restore_bytes);
    });
    carry_over_resume(ckpt, device, options);
  }
  collection.attach_metrics(reg);

  // Phase timers pair host wall time (ScopedPhase) with the modeled device
  // seconds the same span added to the timeline.
  support::metrics::PhaseTimer* sample_phase =
      reg != nullptr ? &reg->phase("sample") : nullptr;
  support::metrics::PhaseTimer* select_phase =
      reg != nullptr ? &reg->phase("select") : nullptr;

  // OomPolicy::Degrade: an OOM while growing the collection stops theta
  // refinement at the last state that fit — subsequent sample_to calls
  // become no-ops, the committed prefix stays selectable, and the run
  // reports best-effort seeds instead of throwing (docs/RESILIENCE.md).
  bool degraded = false;
  std::uint64_t degrade_shortfall = 0;
  // With a spill hierarchy, OOM only reaches here after even the spill
  // tiers failed to make progress; SpillThenDegrade converts that residue
  // to a degrade, plain Spill keeps the configured OomPolicy.
  const OomPolicy effective_oom_policy =
      options.spill.policy == SpillPolicy::SpillThenDegrade ? OomPolicy::Degrade
                                                            : options.oom_policy;
  const auto sample_to = [&](std::uint64_t target) {
    if (degraded) return;
    try {
      sampler.sample_to(collection, target);
    } catch (const support::DeviceOutOfMemoryError& oom) {
      if (effective_oom_policy != OomPolicy::Degrade) throw;
      degraded = true;
      degrade_shortfall = oom.requested_bytes() > oom.available_bytes()
                              ? oom.requested_bytes() - oom.available_bytes()
                              : 0;
      if (reg != nullptr) {
        reg->counter("degrade.activations").add();
        reg->gauge("degrade.shortfall_bytes").set(degrade_shortfall);
      }
      gpusim::mark_instant(trace, device, "oom.degrade",
                           "shortfall_bytes=" + std::to_string(degrade_shortfall));
    }
  };

  // Round-boundary checkpointing: snapshot the full restart state after
  // every estimation round and after the final sampling phase. Published
  // atomically — a kill mid-write leaves the previous snapshot intact.
  std::function<void(const imm::FrameworkRoundState&)> on_round;
  if (!options.checkpoint_dir.empty()) {
    on_round = [&](const imm::FrameworkRoundState& fr) {
      CheckpointState ckpt;
      fill_checkpoint_identity(ckpt, g, model, params, options, 1);
      ckpt.round = fr;
      export_collection(collection, ckpt);
      ckpt.singletons_discarded = sampler.singletons_discarded();
      ckpt.kernel_seconds = device.timeline().kernel_seconds();
      ckpt.transfer_seconds = device.timeline().transfer_seconds();
      ckpt.allocation_seconds = device.timeline().allocation_seconds();
      ckpt.backoff_seconds = device.timeline().backoff_seconds();
      publish_checkpoint(ckpt, device, options);
    };
  }

  std::uint64_t sample_round = 0;
  const imm::FrameworkOutcome outcome = imm::run_imm_framework(
      g.num_vertices(), effective,
      [&](std::uint64_t target) {
        const double before = device.timeline().total_seconds();
        support::trace::ScopedSpan phase_span(
            trace, trace_pid, support::trace::SpanCategory::Phase, "sample", before);
        support::trace::ScopedSpan round_span(
            trace, trace_pid, support::trace::SpanCategory::Round,
            "round " + std::to_string(sample_round++), before);
        if (sample_phase == nullptr) {
          sample_to(target);
        } else {
          const support::metrics::ScopedPhase scope(*sample_phase);
          sample_to(target);
          sample_phase->add_modeled(device.timeline().total_seconds() - before);
        }
        const double after = device.timeline().total_seconds();
        round_span.end(after);
        phase_span.end(after);
      },
      [&] {
        const double before = device.timeline().total_seconds();
        support::trace::ScopedSpan phase_span(
            trace, trace_pid, support::trace::SpanCategory::Phase, "select", before);
        imm::SelectionResult sel;
        if (select_phase == nullptr) {
          sel = selector.select(collection, effective.k);
        } else {
          const support::metrics::ScopedPhase scope(*select_phase);
          sel = selector.select(collection, effective.k);
          select_phase->add_modeled(device.timeline().total_seconds() - before);
        }
        phase_span.end(device.timeline().total_seconds());
        return sel;
      },
      options.resume != nullptr ? &options.resume->round : nullptr, on_round);

  // Seeds travel back over PCIe (k vertex ids).
  retry_transfer(device, options, "seed set", [&] {
    device.transfer_to_host("seed set", outcome.final_selection.seeds.size() *
                                            sizeof(graph::VertexId));
  });

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = collection.num_sets();
  result.total_elements = collection.total_elements();
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.singletons_discarded = sampler.singletons_discarded();
  // Coverage under source elimination is conditional on non-singleton
  // samples; rescale by the kept fraction so the reported spread estimate
  // stays an unbiased n * F over *all* generated samples. (The inflated
  // conditional coverage still drives the theta estimate — that is the
  // §3.4 heuristic's speed mechanism.)
  const std::uint64_t generated = collection.num_sets() + result.singletons_discarded;
  const double kept_fraction =
      generated > 0 ? static_cast<double>(collection.num_sets()) /
                          static_cast<double>(generated)
                    : 1.0;  // degraded before the first set committed
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;

  result.device_seconds = device.timeline().total_seconds();
  result.kernel_seconds = device.timeline().kernel_seconds();
  result.transfer_seconds = device.timeline().transfer_seconds();
  result.peak_device_bytes = device.memory().peak_bytes();
  result.rrr_bytes = collection.stored_bytes();
  result.rrr_raw_bytes = collection.raw_equivalent_bytes();
  result.device_mallocs = 0;  // eIM's design point: no in-kernel allocation
  result.degraded = degraded;
  result.degrade_shortfall_bytes = degrade_shortfall;
  if (spill_store != nullptr) {
    result.spilled_sets = spill_store->spilled_sets();
    result.spill_bytes_compressed = spill_store->compressed_bytes();
    if (reg != nullptr) {
      reg->gauge("spill.compressed_bytes").set(spill_store->compressed_bytes());
      reg->gauge("spill.disk_bytes").set(spill_store->disk_bytes());
    }
  }

  // Fold the device ledger into the trace as leaf spans. The run is over, so
  // every segment interval is final; the phase/round/wave spans recorded
  // live above enclose them by containment on the modeled clock.
  if (trace != nullptr) {
    gpusim::record_timeline_spans(*trace, trace_pid, device.timeline());
  }

  gpusim::record_fault_deltas(reg, faults_before, device.fault_stats());
  if (reg != nullptr) {
    reg->counter("imm.estimation_rounds").add(outcome.estimation_rounds);
    reg->gauge("imm.theta").set(collection.num_sets());
    reg->gauge("rrr.stored_bytes").set(result.rrr_bytes);
    reg->gauge("rrr.raw_equivalent_bytes").set(result.rrr_raw_bytes);
  }
  return result;
}

}  // namespace eim::eim_impl
