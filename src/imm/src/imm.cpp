#include "eim/imm/imm.hpp"

#include "eim/diffusion/reverse.hpp"
#include "eim/imm/driver.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/imm/theta.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/rng.hpp"

namespace eim::imm {

using graph::VertexId;
using support::RandomStream;

std::uint64_t sample_to_target(const graph::Graph& g, graph::DiffusionModel model,
                               const ImmParams& params, RrrStore& store,
                               std::uint64_t target,
                               support::metrics::MetricsRegistry* metrics) {
  diffusion::RrrSampler sampler(g, model, params.eliminate_sources);
  if (metrics != nullptr) {
    sampler.attach_refill_timer(&metrics->wall_timer("rng.refill"));
  }
  // One wall entry per batch: per-sample timing would cost more than the
  // shallow cascades it measures.
  const support::metrics::ScopedWall batch_scope(
      metrics != nullptr ? &metrics->wall_timer("sampler.batch") : nullptr);
  std::vector<VertexId> scratch;
  std::uint64_t discarded = 0;

  for (std::uint64_t i = store.num_sets(); i < target; ++i) {
    for (std::uint32_t attempt = 0;; ++attempt) {
      RandomStream rng(params.rng_seed,
                       support::derive_stream(kSampleStreamTag, i, attempt));
      const VertexId source = rng.next_below(g.num_vertices());
      sampler.sample_into(source, rng, scratch);
      if (!scratch.empty() || !params.eliminate_sources ||
          attempt + 1 >= kMaxRegenerationAttempts) {
        break;
      }
      ++discarded;  // source-only sample thrown away (§3.4)
    }
    store.append(scratch);
  }
  return discarded;
}

ImmResult run_imm_serial(const graph::Graph& g, graph::DiffusionModel model,
                         const ImmParams& params,
                         support::metrics::MetricsRegistry* metrics) {
  RrrStore store(g.num_vertices());
  ImmResult result;

  const FrameworkOutcome outcome = run_imm_framework(
      g.num_vertices(), params,
      [&](std::uint64_t target) {
        result.singletons_discarded +=
            sample_to_target(g, model, params, store, target, metrics);
      },
      [&] { return select_seeds_greedy(store, params.k); });

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = store.num_sets();
  result.total_elements = store.total_elements();
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  // Under source elimination the coverage fraction is conditional on
  // non-singleton samples; rescale so the estimate covers all draws.
  const double kept_fraction =
      static_cast<double>(result.num_sets) /
      static_cast<double>(result.num_sets + result.singletons_discarded);
  result.estimated_spread = static_cast<double>(g.num_vertices()) *
                            outcome.final_selection.coverage_fraction * kept_fraction;
  return result;
}

}  // namespace eim::imm
