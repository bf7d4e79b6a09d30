#include "layered.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/eim/tiered_store.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"

namespace eim::benchmark {

using eim_impl::CheckpointState;
using eim_impl::DeviceRrrCollection;
using eim_impl::EimOptions;
using eim_impl::EimResult;
using eim_impl::EimSampler;
using eim_impl::GpuSeedSelector;
using eim_impl::SpillPolicy;
using eim_impl::TieredRrrStore;
using eim_impl::TieredStoreOptions;

namespace {

/// Everything a solve allocates, destroyed in the same order as run_eim's
/// locals so teardown can be timed as one span.
struct SolveState {
  gpusim::DeviceBuffer<std::uint8_t> network_charge;
  std::optional<DeviceRrrCollection> collection;
  std::optional<EimSampler> sampler;
  std::optional<GpuSeedSelector> selector;
  std::unique_ptr<TieredRrrStore> spill_store;
};

/// Detach the device pool's instruments on scope exit, as run_eim does: the
/// device outlives the solve, so its hooks must not dangle into the caller's
/// registry when a step throws.
struct PoolMetricsGuard {
  explicit PoolMetricsGuard(gpusim::Device& device) : device_(&device) {}
  ~PoolMetricsGuard() { device_->memory().attach_metrics(nullptr, nullptr); }
  PoolMetricsGuard(const PoolMetricsGuard&) = delete;
  PoolMetricsGuard& operator=(const PoolMetricsGuard&) = delete;

 private:
  gpusim::Device* device_;
};

}  // namespace

EimResult run_layered(gpusim::Device& device, const graph::Graph& g,
                      graph::DiffusionModel model, const imm::ImmParams& params,
                      const EimOptions& options, SpanRecorder& spans, std::uint32_t solve) {
  EIM_CHECK_MSG(options.metrics != nullptr, "run_layered needs a metrics registry");
  support::metrics::MetricsRegistry& reg = *options.metrics;
  device.timeline().reset();
  device.memory().reset_peak();
  const PoolMetricsGuard pool_guard(device);
  device.memory().attach_metrics(&reg.gauge("device.peak_bytes"),
                                 &reg.counter("device.alloc_events"));

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  EimResult result;
  result.network_raw_bytes = g.csc_bytes();
  auto state = std::make_unique<SolveState>();

  std::uint64_t network_bytes = result.network_raw_bytes;
  if (options.log_encode) {
    const ScopedSpan span(&spans, "encoding.pack_csc", solve);
    const encoding::PackedCsc packed(g);
    network_bytes = packed.packed_bytes();
  }
  result.network_bytes = network_bytes;
  {
    const ScopedSpan span(&spans, "gpusim.stage", solve);
    state->network_charge = device.alloc<std::uint8_t>(network_bytes);
    device.transfer_to_device("network CSC", network_bytes);
  }

  {
    const ScopedSpan span(&spans, "sampler.construct", solve);
    state->collection.emplace(device, g.num_vertices(), options.log_encode);
    state->sampler.emplace(device, g, model, effective, options);
    state->selector.emplace(device, options.scan);
    state->selector->attach_metrics(&reg);
    if (options.spill.policy != SpillPolicy::Off) {
      TieredStoreOptions store_options;
      store_options.host_budget_bytes = options.spill.host_budget_bytes;
      store_options.dir = options.spill.dir;
      store_options.sets_per_block = options.spill.sets_per_block;
      store_options.staging_blocks = options.spill.staging_blocks;
      store_options.retry = options.retry;
      state->spill_store = std::make_unique<TieredRrrStore>(device, store_options);
      state->spill_store->attach_metrics(&reg);
      state->spill_store->set_resample_hook(
          [sampler = &*state->sampler](std::uint64_t set_id,
                                       std::vector<graph::VertexId>& members) {
            sampler->resample_set(set_id, members);
          });
      state->collection->attach_spill(state->spill_store.get(),
                                      options.spill.device_budget_bytes);
    }
    state->collection->attach_metrics(&reg);
  }
  DeviceRrrCollection& collection = *state->collection;
  EimSampler& sampler = *state->sampler;
  GpuSeedSelector& selector = *state->selector;
  support::metrics::PhaseTimer& sample_phase = reg.phase("sample");
  support::metrics::PhaseTimer& select_phase = reg.phase("select");

  std::function<void(const imm::FrameworkRoundState&)> on_round;
  if (!options.checkpoint_dir.empty()) {
    on_round = [&](const imm::FrameworkRoundState& fr) {
      const ScopedSpan round_span(&spans, "checkpoint.round", solve);
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
      ckpt.num_devices = 1;
      ckpt.round = fr;
      {
        const ScopedSpan span(&spans, "checkpoint.export", solve);
        export_collection(collection, ckpt);
      }
      ckpt.singletons_discarded = sampler.singletons_discarded();
      ckpt.kernel_seconds = device.timeline().kernel_seconds();
      ckpt.transfer_seconds = device.timeline().transfer_seconds();
      ckpt.allocation_seconds = device.timeline().allocation_seconds();
      ckpt.backoff_seconds = device.timeline().backoff_seconds();
      std::ostringstream snapshot;
      support::JsonWriter w(snapshot);
      reg.write_json(w);
      ckpt.metrics_json = snapshot.str();
      const ScopedSpan span(&spans, "checkpoint.save", solve);
      const std::uint64_t bytes = save_checkpoint(options.checkpoint_dir, ckpt);
      reg.counter("checkpoint.writes").add();
      reg.counter("checkpoint.bytes_written").add(bytes);
    };
  }

  const imm::FrameworkOutcome outcome = [&] {
    const ScopedSpan span(&spans, "imm.framework", solve);
    return imm::run_imm_framework(
        g.num_vertices(), effective,
        [&](std::uint64_t target) {
          const ScopedSpan sample_span(&spans, "sampler.sample", solve);
          const double before = device.timeline().total_seconds();
          const support::metrics::ScopedPhase scope(sample_phase);
          sampler.sample_to(collection, target);
          sample_phase.add_modeled(device.timeline().total_seconds() - before);
        },
        [&] {
          const ScopedSpan select_span(&spans, "selector.select", solve);
          const double before = device.timeline().total_seconds();
          const support::metrics::ScopedPhase scope(select_phase);
          imm::SelectionResult sel = selector.select(collection, effective.k);
          select_phase.add_modeled(device.timeline().total_seconds() - before);
          return sel;
        },
        nullptr, on_round);
  }();

  {
    const ScopedSpan span(&spans, "gpusim.readback", solve);
    device.transfer_to_host("seed set", outcome.final_selection.seeds.size() *
                                            sizeof(graph::VertexId));
  }

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = collection.num_sets();
  result.total_elements = collection.total_elements();
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.singletons_discarded = sampler.singletons_discarded();
  const std::uint64_t generated = collection.num_sets() + result.singletons_discarded;
  const double kept_fraction =
      generated > 0 ? static_cast<double>(collection.num_sets()) /
                          static_cast<double>(generated)
                    : 1.0;
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;
  result.device_seconds = device.timeline().total_seconds();
  result.kernel_seconds = device.timeline().kernel_seconds();
  result.transfer_seconds = device.timeline().transfer_seconds();
  result.peak_device_bytes = device.memory().peak_bytes();
  result.rrr_bytes = collection.stored_bytes();
  result.rrr_raw_bytes = collection.raw_equivalent_bytes();
  if (state->spill_store != nullptr) {
    result.spilled_sets = state->spill_store->spilled_sets();
    result.spill_bytes_compressed = state->spill_store->compressed_bytes();
  }

  {
    const ScopedSpan span(&spans, "teardown", solve);
    state.reset();
  }
  return result;
}

}  // namespace eim::benchmark
