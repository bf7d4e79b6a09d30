// The out-of-line bodies of the shared traversal (eim/traversal.hpp): the
// 16-lane in-edge scan of ExactDraws and the RRR set sort. Each computes
// exactly what its scalar form computes, so choosing one never changes a
// draw, a set or a modeled charge.
#include "eim/eim/traversal.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

// Not under ThreadSanitizer, which does not instrument the vector gathers
// and loads: the TSan tree runs the scalar body, whose every access it sees.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
#define EIM_SCAN_X86 1
#include <immintrin.h>
#else
#define EIM_SCAN_X86 0
#endif

namespace eim::eim_impl {
namespace {

bool detect_wide_scan() noexcept {
#if EIM_SCAN_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

}  // namespace

const bool ExactDraws::wide_scan = detect_wide_scan();

#if EIM_SCAN_X86

// GCC 12 flags the passthrough operands of the masked intrinsics as "may be
// used uninitialized" once they are inlined; every lane they could supply
// is masked off.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f"))) std::size_t ExactDraws::scan_avx512(
    const graph::VertexId* ins, const float* ws, std::size_t j, std::size_t end,
    const std::uint32_t* stamp, std::uint32_t epoch, const float* draws,
    std::size_t& t) noexcept {
  const __m512i current = _mm512_set1_epi32(static_cast<int>(epoch));
  std::size_t taken = t;
  for (; j < end; j += 16) {
    const std::size_t left = end - j;
    const auto lanes = left >= 16 ? static_cast<__mmask16>(0xFFFF)
                                  : static_cast<__mmask16>((1u << left) - 1u);
    const __m512i ids = _mm512_maskz_loadu_epi32(lanes, ins + j);
    // Lanes past the row keep `current`, so they read as visited.
    const __m512i seen = _mm512_mask_i32gather_epi32(current, lanes, ids, stamp, 4);
    const __mmask16 fresh = _mm512_mask_cmpneq_epi32_mask(lanes, seen, current);
    // The k-th unvisited lane gets draws[taken + k].
    const __m512 p = _mm512_maskz_expandloadu_ps(fresh, draws + taken);
    const __m512 w = _mm512_maskz_loadu_ps(lanes, ws + j);
    const auto fired =
        static_cast<unsigned>(_mm512_mask_cmp_ps_mask(fresh, p, w, _CMP_LT_OQ));
    if (fired != 0) {
      const int lane = std::countr_zero(fired);
      const unsigned through = (2u << lane) - 1u;  // lanes 0..lane
      taken += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(fresh) & through));
      t = taken;
      return j + static_cast<std::size_t>(lane);
    }
    taken += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(fresh)));
  }
  t = taken;
  return end;
}

#pragma GCC diagnostic pop

#else

std::size_t ExactDraws::scan_avx512(const graph::VertexId* ins, const float* ws,
                                    std::size_t j, std::size_t end,
                                    const std::uint32_t* stamp, std::uint32_t epoch,
                                    const float* draws, std::size_t& t) noexcept {
  return scan_scalar(ins, ws, j, end, stamp, epoch, draws, t);
}

#endif  // EIM_SCAN_X86

void sort_set(std::vector<graph::VertexId>& set, std::vector<graph::VertexId>& buffer,
              graph::VertexId num_vertices) {
  const std::size_t size = set.size();
  if (size < kRadixSortMin || num_vertices < 2) {
    std::sort(set.begin(), set.end());
    return;
  }
  const int bits = static_cast<int>(std::bit_width(num_vertices - 1u));
  const int passes = (bits + 7) / 8;
  const int digit = (bits + passes - 1) / passes;  // <= 8
  const std::uint32_t buckets = 1u << digit;
  const std::uint32_t mask = buckets - 1u;

  std::uint32_t counts[4][256];
  for (int p = 0; p < passes; ++p) std::fill_n(counts[p], buckets, 0u);
  for (const graph::VertexId v : set) {
    for (int p = 0; p < passes; ++p) ++counts[p][(v >> (p * digit)) & mask];
  }
  buffer.resize(size);
  graph::VertexId* from = set.data();
  graph::VertexId* to = buffer.data();
  for (int p = 0; p < passes; ++p) {
    std::uint32_t at = 0;
    for (std::uint32_t b = 0; b < buckets; ++b) {
      const std::uint32_t n = counts[p][b];
      counts[p][b] = at;
      at += n;
    }
    const int shift = p * digit;
    for (std::size_t i = 0; i < size; ++i) {
      const graph::VertexId v = from[i];
      to[counts[p][(v >> shift) & mask]++] = v;
    }
    std::swap(from, to);
  }
  if (from != set.data()) std::copy(from, from + size, set.data());
}

}  // namespace eim::eim_impl
