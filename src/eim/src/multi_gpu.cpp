#include "eim/eim/multi_gpu.hpp"

#include <string>

#include "eim/gpusim/timeline_trace.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"
#include "sharded.hpp"

namespace eim::eim_impl {

namespace {

/// Host PCIe via the primary: every exchange between devices is a copy on
/// the primary's link, serialized on its copy engine.
class HostPcie final : public Interconnect {
 public:
  HostPcie(MultiGpuResult& result, const EimOptions& options)
      : result_(result), metrics_(options.metrics), trace_(options.trace) {
    if (metrics_ != nullptr) {
      count_allreduces_ = &metrics_->counter("multi.count_allreduces");
      pick_broadcasts_ = &metrics_->counter("multi.pick_broadcasts");
    }
  }

  // Ring reduce to the primary: each other surviving device ships its count
  // array once.
  void reduce_counts(const Fleet& fleet, std::uint64_t bytes) override {
    gpusim::Device& primary = fleet.primary();
    for (std::size_t j = 1; j < fleet.alive.size(); ++j) {
      const double before = primary.timeline().transfer_seconds();
      primary.transfer_to_device("count all-reduce", bytes);
      result_.communication_seconds += primary.timeline().transfer_seconds() - before;
      if (count_allreduces_ != nullptr) count_allreduces_->add();
    }
  }

  // The primary broadcasts the pick and gathers each device's coverage delta.
  void exchange_pick(const Fleet& fleet) override {
    gpusim::Device& primary = fleet.primary();
    const double before = primary.timeline().transfer_seconds();
    for (std::size_t j = 1; j < fleet.alive.size(); ++j) {
      primary.transfer_to_device("pick broadcast", sizeof(graph::VertexId));
      primary.transfer_to_host("coverage delta", sizeof(std::uint64_t));
      if (pick_broadcasts_ != nullptr) pick_broadcasts_->add();
    }
    result_.communication_seconds += primary.timeline().transfer_seconds() - before;
  }

  // Charge the redistribution broadcast of the respilled sample indices on
  // the (possibly just-promoted) primary.
  void domain_lost(const Fleet& fleet, std::uint32_t d, std::uint64_t regenerated,
                   std::uint64_t respilled) override {
    result_.failover_regenerated_sets += regenerated;
    result_.failed_devices.push_back(d);
    if (fleet.alive.empty()) {
      throw support::DeviceLostError("all " + std::to_string(fleet.domains.size()) +
                                     " devices; no survivor to fail over to");
    }
    gpusim::Device& primary = fleet.primary();
    const std::uint64_t bytes = respilled * sizeof(std::uint64_t);
    if (bytes > 0) {
      primary.transfer_to_device("failover redistribution", bytes);
      result_.failover_transfer_bytes += bytes;
    }
    if (metrics_ != nullptr) {
      metrics_->counter("multi.failover_events").add();
      metrics_->counter("multi.failover_regenerated_sets").add(regenerated);
      metrics_->counter("multi.failover_transfer_bytes").add(bytes);
    }
    gpusim::mark_instant(trace_, *fleet.domains[d].front(), "device.lost",
                         "respilled=" + std::to_string(respilled));
    if (bytes > 0) {
      gpusim::mark_instant(trace_, primary, "failover.redistribute",
                           "bytes=" + std::to_string(bytes));
    }
  }

  void finish() override {
    if (metrics_ != nullptr) {
      metrics_->phase("multi.communication").add_modeled(result_.communication_seconds);
    }
  }

 private:
  MultiGpuResult& result_;
  support::metrics::MetricsRegistry* metrics_;
  support::trace::TraceRecorder* trace_;
  support::metrics::Counter* count_allreduces_ = nullptr;
  support::metrics::Counter* pick_broadcasts_ = nullptr;
};

}  // namespace

MultiGpuResult run_eim_multi(std::vector<gpusim::Device*> devices,
                             const graph::Graph& g, graph::DiffusionModel model,
                             const imm::ImmParams& params, const EimOptions& options) {
  EIM_CHECK_MSG(!devices.empty(), "need at least one device");
  for (gpusim::Device* d : devices) EIM_CHECK_MSG(d != nullptr, "null device");
  // One failure domain and one trace track per device; the samplers resolve
  // their wave-span pids through pid_of, and the phase spans ride on the
  // current primary.
  Fleet fleet;
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    fleet.domains.push_back({devices[d]});
    fleet.alive.push_back(d);
    if (options.trace != nullptr) {
      options.trace->register_process("device " + std::to_string(d), devices[d]);
    }
  }

  MultiGpuResult result;
  result.num_devices = static_cast<std::uint32_t>(devices.size());
  HostPcie pcie(result, options);
  run_sharded(std::move(fleet), pcie, g, model, params, options, result);
  return result;
}

}  // namespace eim::eim_impl
