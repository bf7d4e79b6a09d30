// Log-encoded CSC network representation (§3.1).
//
// The three CSC arrays are treated exactly as in the paper:
//  * offsets       -> packed with bit_width(m) bits,
//  * in-neighbors  -> packed with bit_width(n-1) bits,
//  * edge weights  -> kept as float32 (log encoding applies to integers; the
//                     paper compresses the integer arrays and this is what
//                     yields its 28.8% -> 14% savings band for network data).
//
// For the paper's default 1/d^- weight scheme the weights are additionally
// *derivable* from the offsets (w = 1/in_degree), so an implicit-weight mode
// drops the weight array entirely; this exceeds the paper's savings and is
// flagged off by default to keep Fig. 4 comparable.
#pragma once

#include <cstdint>

#include "eim/encoding/bit_packed_array.hpp"
#include "eim/graph/graph.hpp"

namespace eim::encoding {

enum class WeightStorage {
  /// Keep the float32 weight array verbatim (paper-comparable mode).
  RawFloat,
  /// Recompute 1/d^-(v) from the packed offsets; stores no weights.
  /// Only valid for graphs weighted with WeightScheme::InDegree.
  ImplicitInDegree,
};

class PackedCsc {
 public:
  /// Compress a weighted graph's in-adjacency.
  PackedCsc(const graph::Graph& g, WeightStorage weight_storage = WeightStorage::RawFloat);

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] graph::EdgeId num_edges() const noexcept { return m_; }

  [[nodiscard]] graph::EdgeId offset(graph::VertexId v) const noexcept {
    return offsets_.get(v);
  }
  [[nodiscard]] graph::EdgeId in_degree(graph::VertexId v) const noexcept {
    return offsets_.get(v + 1u) - offsets_.get(v);
  }
  /// The j-th in-neighbor of v (j < in_degree(v)).
  [[nodiscard]] graph::VertexId in_neighbor(graph::VertexId v, graph::EdgeId j) const noexcept {
    return static_cast<graph::VertexId>(neighbors_.get(offsets_.get(v) + j));
  }
  /// Weight of the j-th in-edge of v.
  [[nodiscard]] graph::Weight in_weight(graph::VertexId v, graph::EdgeId j) const noexcept {
    if (weight_storage_ == WeightStorage::ImplicitInDegree) {
      return 1.0f / static_cast<float>(in_degree(v));
    }
    return weights_[offsets_.get(v) + j];
  }

  [[nodiscard]] WeightStorage weight_storage() const noexcept { return weight_storage_; }

  /// Total bytes of the compressed representation.
  [[nodiscard]] std::uint64_t packed_bytes() const noexcept;
  /// packed_bytes() of PackedCsc(g) with RawFloat weights, computed from
  /// the graph's sizes alone: what staging the packed network on a device
  /// costs, without building it.
  [[nodiscard]] static std::uint64_t packed_bytes_for(const graph::Graph& g) noexcept;
  /// Bytes of the equivalent uncompressed CSC (64-bit offsets, 32-bit
  /// neighbors, 32-bit weights) — the baseline of Fig. 4.
  [[nodiscard]] std::uint64_t raw_bytes() const noexcept;
  /// Fraction of memory saved, as plotted in Fig. 4.
  [[nodiscard]] double saved_fraction() const noexcept {
    const auto raw = static_cast<double>(raw_bytes());
    return raw == 0.0 ? 0.0 : 1.0 - static_cast<double>(packed_bytes()) / raw;
  }

 private:
  graph::VertexId n_ = 0;
  graph::EdgeId m_ = 0;
  WeightStorage weight_storage_;
  BitPackedArray offsets_;
  BitPackedArray neighbors_;
  std::vector<graph::Weight> weights_;
};

}  // namespace eim::encoding
