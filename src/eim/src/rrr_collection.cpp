#include "eim/eim/rrr_collection.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>

#include "eim/eim/tiered_store.hpp"
#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"

namespace eim::eim_impl {

using graph::VertexId;

DeviceRrrCollection::DeviceRrrCollection(gpusim::Device& device, VertexId num_vertices,
                                         bool log_encode)
    : device_(&device),
      instance_id_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      n_(num_vertices),
      log_encode_(log_encode),
      bits_per_vertex_(
          support::bit_width_for_value(num_vertices == 0 ? 0 : num_vertices - 1)) {
  // C lives on the device for the whole run (charged, not materialized).
  charge_device(static_cast<std::uint64_t>(num_vertices) * sizeof(std::uint32_t));
}

DeviceRrrCollection::~DeviceRrrCollection() {
#ifndef NDEBUG
  // The running charge must equal the footprint of what we actually own —
  // a mismatch means some charge/refund pair desynced from an array resize.
  const std::uint64_t r_bytes = current_r_bytes();
  const std::uint64_t o_bytes =
      starts_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  const std::uint64_t c_bytes = static_cast<std::uint64_t>(n_) * sizeof(std::uint32_t);
  assert(charged_bytes_ == r_bytes + o_bytes + c_bytes &&
         "device charge desynced from owned R/O/C arrays");
#endif
  refund_device(charged_bytes_);
}

void DeviceRrrCollection::attach_metrics(support::metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    commit_rejects_ = nullptr;
    regrow_r_ = nullptr;
    regrow_o_ = nullptr;
    set_size_hist_ = nullptr;
    return;
  }
  commit_rejects_ = &registry->counter("rrr.commit_rejects");
  regrow_r_ = &registry->counter("rrr.regrow_r");
  regrow_o_ = &registry->counter("rrr.regrow_o");
  set_size_hist_ = &registry->histogram("rrr.set_size");
}

void DeviceRrrCollection::attach_profile(support::profiler::WallProfile* profile) {
  commit_publish_ = profile != nullptr ? &profile->timer("commit.publish") : nullptr;
}

void DeviceRrrCollection::charge_device(std::uint64_t bytes) {
  device_->memory().allocate(bytes);
  charged_bytes_ += bytes;
}

void DeviceRrrCollection::refund_device(std::uint64_t bytes) noexcept {
  device_->memory().deallocate(bytes);
  charged_bytes_ -= bytes;
}

void DeviceRrrCollection::attach_spill(TieredRrrStore* store,
                                       std::uint64_t device_budget_bytes) {
  EIM_CHECK_MSG(num_sets_ == 0, "attach the spill store before any set is committed");
  spill_ = store;
  device_budget_bytes_ = device_budget_bytes;
}

std::uint64_t DeviceRrrCollection::current_r_bytes() const noexcept {
  return log_encode_ ? packed_.storage_bytes() : raw_.size() * sizeof(VertexId);
}

std::uint64_t DeviceRrrCollection::r_bytes_for(std::uint64_t elements) const noexcept {
  return log_encode_ ? support::div_ceil<std::uint64_t>(elements * bits_per_vertex_, 32) *
                           sizeof(std::uint32_t)
                     : elements * sizeof(VertexId);
}

std::uint64_t DeviceRrrCollection::elements_for_bytes(
    std::uint64_t bytes) const noexcept {
  if (!log_encode_) return bytes / sizeof(VertexId);
  const std::uint64_t words = bytes / sizeof(std::uint32_t);
  return bits_per_vertex_ == 0 ? words * 32 : words * 32 / bits_per_vertex_;
}

std::uint64_t DeviceRrrCollection::budget_device_elements() const noexcept {
  // The budget caps the R element array alone. The per-set offset/length
  // metadata (12 B/set) cannot spill — it indexes the spilled sets too — so
  // it stays device-resident outside the budget; a budget tighter than the
  // metadata would otherwise allow zero elements and stall every wave.
  return elements_for_bytes(device_budget_bytes_);
}

void DeviceRrrCollection::spill_committed() {
  EIM_CHECK_MSG(spill_ != nullptr, "spill_committed without an attached store");
  // Between waves every admitted set is published, and the committed sets
  // not yet spilled, [spilled_sets_, num_sets_), are exactly the device
  // array's contents [device_base_, cursor) — so it drops whole.
  const std::uint64_t resident = element_cursor_ - device_base_;
  if (num_sets_ > spilled_sets_) {
    const std::span<const std::uint32_t> lens(lengths_.data() + spilled_sets_,
                                              num_sets_ - spilled_sets_);
    std::vector<VertexId> decoded(log_encode_ ? resident : 0);
    if (log_encode_) packed_.decode_into(0, decoded);
    const std::span<const VertexId> values =
        log_encode_ ? std::span<const VertexId>(decoded)
                    : std::span<const VertexId>(raw_.data(), resident);
    spill_->spill(lens, values, r_bytes_for(resident));
    spilled_sets_ = num_sets_;
  }
  const std::uint64_t old_bytes = current_r_bytes();
  if (log_encode_) {
    packed_ = encoding::BitPackedArray();
  } else {
    raw_.clear();
    raw_.shrink_to_fit();
  }
  refund_device(old_bytes);
  device_base_ = element_cursor_;
  element_capacity_ = element_cursor_;
}

void DeviceRrrCollection::allocate_r(std::uint64_t num_elements) {
  // Allocate-new / copy / free-old, transiently holding both — exactly what
  // a cudaMalloc/cudaMemcpy resize costs. Only the device-resident suffix
  // [device_base_, cursor) is copied; spilled history stays below.
  const std::uint64_t dev_len = num_elements - device_base_;
  const std::uint64_t old_bytes = current_r_bytes();
  charge_device(r_bytes_for(dev_len));
  if (log_encode_) {
    encoding::BitPackedArray grown(static_cast<std::size_t>(dev_len),
                                   bits_per_vertex_);
    // Same bit width, so the committed prefix is a straight word copy —
    // slots past the cursor are still zero on both sides.
    const std::uint64_t used = element_cursor_ - device_base_;
    grown.assign_prefix(packed_, static_cast<std::size_t>(used));
    packed_ = std::move(grown);
  } else {
    raw_.resize(dev_len, 0);  // std::vector moves the payload itself
  }
  refund_device(old_bytes);
  element_capacity_ = num_elements;
  device_->charge_allocation_event("grow R");
  if (regrow_r_ != nullptr) regrow_r_->add();
}

void DeviceRrrCollection::grow_r(std::uint64_t num_elements) {
  // Budget clamp: when the requested horizon exceeds what the device budget
  // allows, evict everything committed and restart the device array at the
  // cursor — spill instead of truncating θ.
  if (spill_ != nullptr && device_budget_bytes_ > 0) {
    const std::uint64_t max_dev = budget_device_elements();
    if (num_elements - device_base_ > max_dev) {
      if (element_cursor_ > device_base_) spill_committed();
      num_elements = std::min(
          num_elements, device_base_ + std::max<std::uint64_t>(max_dev, 1));
      if (num_elements <= element_capacity_) return;
    }
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      allocate_r(num_elements);
      return;
    } catch (const support::DeviceOutOfMemoryError&) {
      // Genuine pool OOM: free the cold device-resident sets downward and
      // retry once, sized to what the pool can still hold.
      if (spill_ == nullptr || attempt > 0) throw;
      spill_committed();
      const auto& pool = device_->memory();
      const std::uint64_t avail =
          pool.capacity_bytes() > pool.allocated_bytes()
              ? pool.capacity_bytes() - pool.allocated_bytes()
              : 0;
      const std::uint64_t max_dev = elements_for_bytes(avail);
      num_elements = std::min(
          num_elements, device_base_ + std::max<std::uint64_t>(max_dev, 1));
      if (num_elements <= element_capacity_) throw;
    }
  }
}

void DeviceRrrCollection::reserve(std::uint64_t num_sets, std::uint64_t num_elements) {
  admission_closed_ = false;
  // O growth (start u64 + length u32 per set).
  if (num_sets > starts_.size()) {
    const std::uint64_t extra = (num_sets - starts_.size()) * (sizeof(std::uint64_t) +
                                                               sizeof(std::uint32_t));
    charge_device(extra);
    starts_.resize(num_sets, 0);
    lengths_.resize(num_sets, 0);
    device_->charge_allocation_event("grow O");
    if (regrow_o_ != nullptr) regrow_o_->add();
  }

  if (num_elements > element_capacity_) grow_r(num_elements);
}

std::uint64_t DeviceRrrCollection::admit(std::span<const std::uint32_t> lengths,
                                         std::uint64_t max_rejects) {
  EIM_CHECK_MSG(num_sets_ + lengths.size() <= starts_.size(),
                "set index beyond reserved O capacity");
  // Alg. 2 line 21 as an ordered single-pass claim: offsets are the
  // exclusive scan of the lengths, and the first set past capacity ends the
  // run — no later slot may fill the space in front of it.
  std::uint64_t admitted = 0;
  if (!admission_closed_) {
    for (const std::uint32_t len : lengths) {
      if (element_cursor_ + len > element_capacity_) break;
      starts_[num_sets_] = element_cursor_;
      lengths_[num_sets_] = len;
      element_cursor_ += len;
      ++num_sets_;
      ++admitted;
      if (set_size_hist_ != nullptr) set_size_hist_->observe(len);
    }
  }
  const std::uint64_t rejected = lengths.size() - admitted;
  if (rejected > 0) {
    admission_closed_ = true;
    if (commit_rejects_ != nullptr) commit_rejects_->add(std::min(rejected, max_rejects));
  }
  return admitted;
}

void DeviceRrrCollection::publish(std::uint64_t set_index,
                                  std::span<const VertexId> sorted_set) {
  assert(std::is_sorted(sorted_set.begin(), sorted_set.end()));
  assert(set_index < num_sets_ && sorted_set.size() == lengths_[set_index]);
  // Thresholded wall timing (kTimedPublishLen): short publishes cost less
  // than the clock reads, so only substantial slices are measured here.
  const bool timed =
      commit_publish_ != nullptr && sorted_set.size() >= kTimedPublishLen;
  const auto publish_start = timed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  const std::uint64_t local = starts_[set_index] - device_base_;
  if (log_encode_) {
    // Bulk word-streaming publish of the admitted slice: only the boundary
    // containers shared with neighboring slices pay an atomic op.
    packed_.store_release_range(static_cast<std::size_t>(local), sorted_set);
  } else {
    std::copy(sorted_set.begin(), sorted_set.end(),
              raw_.begin() + static_cast<std::ptrdiff_t>(local));
  }
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - publish_start)
                        .count();
    commit_publish_->record_ns(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
  }
}

void DeviceRrrCollection::decode_set(std::uint64_t i, std::span<VertexId> out) const {
  assert(out.size() == lengths_[i]);
  if (is_spilled(i)) {
    spill_->fetch(i, out);
    return;
  }
  const std::uint64_t start = starts_[i] - device_base_;
  if (log_encode_) {
    packed_.decode_into(static_cast<std::size_t>(start), out);
  } else {
    std::copy_n(raw_.begin() + static_cast<std::ptrdiff_t>(start), out.size(),
                out.begin());
  }
}

std::uint64_t DeviceRrrCollection::stored_bytes() const noexcept {
  // Only the device-resident suffix counts — spilled history lives in the
  // store, whose compressed footprint is reported separately.
  const std::uint64_t r_bytes = r_bytes_for(total_elements() - device_base_);
  // O is charged per reserved slot (reserve() sizes starts_), so report the
  // same footprint here; num_sets_ lags the reservation mid-run and would
  // under-report what the pool actually holds.
  const std::uint64_t o_bytes =
      starts_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  const std::uint64_t c_bytes = static_cast<std::uint64_t>(n_) * sizeof(std::uint32_t);
  return r_bytes + o_bytes + c_bytes;
}

std::uint64_t DeviceRrrCollection::raw_equivalent_bytes() const noexcept {
  return total_elements() * sizeof(VertexId) +
         starts_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t)) +
         static_cast<std::uint64_t>(n_) * sizeof(std::uint32_t);
}

}  // namespace eim::eim_impl
