#include "eim/eim/pipeline.hpp"

#include <memory>

#include "eim/eim/seed_selector.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/thread_pool.hpp"
#include "eim/support/trace.hpp"
#include "sharded.hpp"

namespace eim::eim_impl {

namespace {

/// One device is its own fleet: nothing to reduce or exchange, picks priced
/// by §3.5's arg-max + count-update kernels, and its running ledger is the
/// wall clock. For the run's duration it also points the device pool's
/// instruments and the thread pool's dispatch timer at the caller's sinks;
/// the device and the thread pool outlive the run, so the destructor
/// detaches them.
class LocalDevice final : public Interconnect {
 public:
  LocalDevice(gpusim::Device& device, graph::VertexId num_vertices,
              const EimOptions& options, EimResult& result)
      : device_(device),
        num_vertices_(num_vertices),
        options_(options),
        result_(result) {
    // Reset before the high-water gauge attaches, so it reports this run
    // alone. A caller that already named the trace track (eim_cli) wins.
    device.timeline().reset();
    device.memory().reset_peak();
    if (options.trace != nullptr && !options.trace->pid_of(&device).has_value()) {
      options.trace->register_process("device 0", &device);
    }
    if (options.metrics != nullptr) {
      device.memory().attach_metrics(&options.metrics->gauge("device.peak_bytes"),
                                     &options.metrics->counter("device.alloc_events"));
      support::ThreadPool::global().attach_dispatch_timer(
          &options.metrics->wall_timer("pool.dispatch"));
    }
  }
  ~LocalDevice() override {
    device_.memory().attach_metrics(nullptr, nullptr);
    support::ThreadPool::global().attach_dispatch_timer(nullptr);
  }
  LocalDevice(const LocalDevice&) = delete;
  LocalDevice& operator=(const LocalDevice&) = delete;

  void reduce_counts(const Fleet& /*fleet*/, std::uint64_t /*bytes*/) override {}
  void exchange_pick(const Fleet& /*fleet*/) override {}
  std::unique_ptr<PickPricer> pick_pricer(const Fleet& /*fleet*/,
                                          std::span<const Placement> /*placement*/,
                                          std::uint64_t num_sets) override {
    return make_scan_kernel_pricer(device_, options_.scan, num_vertices_, num_sets,
                                   options_.metrics);
  }
  void finish() override { result_.device_seconds = device_.timeline().total_seconds(); }

 private:
  gpusim::Device& device_;
  graph::VertexId num_vertices_;
  const EimOptions& options_;
  EimResult& result_;
};

}  // namespace

EimResult run_eim(gpusim::Device& device, const graph::Graph& g,
                  graph::DiffusionModel model, const imm::ImmParams& params,
                  const EimOptions& options) {
  EimResult result;
  LocalDevice local(device, g.num_vertices(), options, result);
  run_sharded(Fleet{{{&device}}, {0}}, local, g, model, params, options, result);
  return result;
}

}  // namespace eim::eim_impl
