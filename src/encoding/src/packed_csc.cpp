#include "eim/encoding/packed_csc.hpp"

#include <cmath>

#include "eim/support/error.hpp"

namespace eim::encoding {

using graph::EdgeId;
using graph::VertexId;

namespace {

/// Offsets are packed at bit_width(m) bits, neighbor ids at bit_width(n-1).
std::uint32_t offset_bits(const graph::Graph& g) noexcept {
  return support::bit_width_for_value(g.num_edges());
}
std::uint32_t neighbor_bits(const graph::Graph& g) noexcept {
  const VertexId n = g.num_vertices();
  return support::bit_width_for_value(n == 0 ? 0 : n - 1);
}

}  // namespace

PackedCsc::PackedCsc(const graph::Graph& g, WeightStorage weight_storage)
    : n_(g.num_vertices()), m_(g.num_edges()), weight_storage_(weight_storage) {
  const auto& in = g.in();
  offsets_ = BitPackedArray(in.offsets.size(), offset_bits(g));
  for (std::size_t i = 0; i < in.offsets.size(); ++i) offsets_.set(i, in.offsets[i]);

  neighbors_ = BitPackedArray(in.targets.size(), neighbor_bits(g));
  for (std::size_t i = 0; i < in.targets.size(); ++i) neighbors_.set(i, in.targets[i]);

  if (weight_storage_ == WeightStorage::RawFloat) {
    weights_.assign(g.all_in_weights().begin(), g.all_in_weights().end());
  } else {
    // Verify the implicit contract: every weight must equal 1/d^-(v).
    for (VertexId v = 0; v < n_; ++v) {
      const auto ws = g.in_weights(v);
      const auto d = static_cast<float>(ws.size());
      for (const graph::Weight w : ws) {
        EIM_CHECK_MSG(std::abs(w - 1.0f / d) < 1e-6f,
                      "ImplicitInDegree requires 1/d^- weights");
      }
    }
  }
}

std::uint64_t PackedCsc::packed_bytes() const noexcept {
  return offsets_.storage_bytes() + neighbors_.storage_bytes() +
         static_cast<std::uint64_t>(weights_.size()) * sizeof(graph::Weight);
}

std::uint64_t PackedCsc::packed_bytes_for(const graph::Graph& g) noexcept {
  const auto& in = g.in();
  return BitPackedArray::storage_bytes_for(in.offsets.size(), offset_bits(g)) +
         BitPackedArray::storage_bytes_for(in.targets.size(), neighbor_bits(g)) +
         static_cast<std::uint64_t>(g.all_in_weights().size()) * sizeof(graph::Weight);
}

std::uint64_t PackedCsc::raw_bytes() const noexcept {
  return static_cast<std::uint64_t>(n_ + 1) * sizeof(EdgeId) +
         static_cast<std::uint64_t>(m_) * sizeof(VertexId) +
         static_cast<std::uint64_t>(m_) * sizeof(graph::Weight);
}

}  // namespace eim::encoding
