#include "eim/graph/edge_list.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"

namespace eim::graph {

namespace {

/// Stable LSD radix sort of `edges` by the (from, to) key, whose `to` half
/// is `to_bits` wide (ids below 2^to_bits). The key is recomputed from each
/// edge per pass rather than stored, so the only extra memory is one
/// scratch array the size of the edges. Digits are at most 12 bits: the
/// per-pass histogram stays in L1 and a 2^18-vertex graph sorts in three
/// passes.
void radix_sort_edges(std::vector<Edge>& edges, std::uint32_t to_bits) {
  constexpr std::uint32_t kMaxDigitBits = 12;
  const std::uint32_t key_bits = 2 * to_bits;
  const std::uint32_t passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  if (passes == 0) return;
  const std::uint32_t digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const auto key = [to_bits](const Edge& e) {
    return (static_cast<std::uint64_t>(e.from) << to_bits) | e.to;
  };

  // Every pass's histogram in one read of the input.
  std::vector<std::size_t> counts(passes * buckets, 0);
  for (const Edge& e : edges) {
    const std::uint64_t k = key(e);
    for (std::uint32_t p = 0; p < passes; ++p) {
      ++counts[p * buckets + ((k >> (p * digit_bits)) & (buckets - 1))];
    }
  }

  std::vector<Edge> scratch(edges.size());
  for (std::uint32_t p = 0; p < passes; ++p) {
    std::size_t* cursor = counts.data() + p * buckets;
    const std::uint32_t shift = p * digit_bits;
    std::exclusive_scan(cursor, cursor + buckets, cursor, std::size_t{0});
    for (const Edge& e : edges) scratch[cursor[(key(e) >> shift) & (buckets - 1)]++] = e;
    edges.swap(scratch);
  }
}

}  // namespace

EdgeList::EdgeList(VertexId num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  for (const Edge& e : edges_) {
    EIM_CHECK_MSG(e.from < num_vertices_ && e.to < num_vertices_,
                  "edge endpoint out of range");
  }
}

void EdgeList::add_edge(VertexId from, VertexId to) {
  ensure_vertex(from);
  ensure_vertex(to);
  edges_.push_back(Edge{from, to});
}

void EdgeList::ensure_vertex(VertexId v) {
  EIM_CHECK_MSG(v != kInvalidVertex, "vertex id reserved as sentinel");
  if (v >= num_vertices_) num_vertices_ = v + 1;
}

void EdgeList::normalize() {
  std::erase_if(edges_, [](const Edge& e) { return e.from == e.to; });
  if (edges_.size() > 1) radix_sort_edges(edges_, support::ceil_log2(num_vertices_));
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

void EdgeList::make_bidirectional() {
  const std::size_t original = edges_.size();
  edges_.reserve(original * 2);
  for (std::size_t i = 0; i < original; ++i) {
    edges_.push_back(Edge{edges_[i].to, edges_[i].from});
  }
  normalize();
}

}  // namespace eim::graph
