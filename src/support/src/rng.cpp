// Whole-block middle of RandomStream's bulk fills.
//
// The Philox lane loop is the one place in the library where raw ALU
// throughput matters: on CPUs it is the direct stand-in for the device-side
// curand batch the paper's sampler would run. Two bodies exist:
//
//  * a hand-scheduled AVX-512 kernel (even/odd u64-lane convention, below),
//    selected at runtime where the host supports it;
//  * a portable lane-array loop compiled as ISA clones (ifunc), so the
//    baseline build stays at plain x86-64 while the loader transparently
//    picks an AVX2 body on hosts without AVX-512.
//
// Every path computes the identical bit sequence — the kernels are pure
// 32-bit integer mixing plus an exact float scale — so dispatch never
// affects determinism, only wall time.
#include "eim/support/rng.hpp"

#include <cstddef>
#include <cstdint>
#include <type_traits>

// Not under ThreadSanitizer: ifunc resolvers run during relocation, before
// libtsan has initialized, and crash the binary before main.
#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(__SANITIZE_THREAD__)
#define EIM_PHILOX_X86 1
#include <immintrin.h>
// target_clones needs ifunc support (GCC/Clang on x86-64 Linux with glibc);
// elsewhere the plain definition is used and the compiler's baseline wins.
#define EIM_PHILOX_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define EIM_PHILOX_X86 0
#define EIM_PHILOX_CLONES
#endif

namespace eim::support {
namespace {

/// Map a raw Philox word to the output type: identity for u32, the exact
/// 24-bit mantissa scale for float (bit-equal to RandomStream::next_float).
inline std::uint32_t map_word(std::uint32_t v, std::uint32_t* /*tag*/) noexcept {
  return v;
}
inline float map_word(std::uint32_t v, float* /*tag*/) noexcept {
  return static_cast<float>(v >> 8) * 0x1.0p-24f;
}

/// Scalar per-block tail shared by every path: one Philox application,
/// stored in consumption order (block_[3..0]).
template <typename Out>
inline void scalar_blocks(const Philox4x32::Key key,
                          const std::array<std::uint32_t, 2> base,
                          std::uint64_t counter, Out* out, std::size_t first,
                          std::size_t num_blocks) noexcept {
  for (std::size_t b = first; b < num_blocks; ++b) {
    const std::uint64_t ctr = counter + b;
    const Philox4x32::Counter blk = Philox4x32::apply(
        {static_cast<std::uint32_t>(ctr), static_cast<std::uint32_t>(ctr >> 32),
         base[0], base[1]},
        key);
    Out* const dst = out + 4 * b;
    dst[0] = map_word(blk[3], out);
    dst[1] = map_word(blk[2], out);
    dst[2] = map_word(blk[1], out);
    dst[3] = map_word(blk[0], out);
  }
}

/// Portable bulk path: the lane state lives in parallel arrays so each round
/// is a straight-line loop over lanes — the pattern every vector ISA picks
/// up as widening 32x32->64 multiplies. 32 lanes keep two accumulator
/// vectors in flight per register file on AVX2 and AVX-512 alike.
template <typename Out>
inline void generic_blocks(const Philox4x32::Key key,
                           const std::array<std::uint32_t, 2> base,
                           std::uint64_t counter, Out* out,
                           std::size_t num_blocks) noexcept {
  constexpr std::size_t kLanes = 32;
  std::size_t b = 0;
  while (num_blocks - b >= kLanes) {
    std::uint32_t c0[kLanes], c1[kLanes], c2[kLanes], c3[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t ctr = counter + b + l;
      c0[l] = static_cast<std::uint32_t>(ctr);
      c1[l] = static_cast<std::uint32_t>(ctr >> 32);
      c2[l] = base[0];
      c3[l] = base[1];
    }
    std::uint32_t k0 = key[0];
    std::uint32_t k1 = key[1];
    for (int r = 0; r < Philox4x32::kRounds; ++r) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::uint32_t lo0 = Philox4x32::kMul0 * c0[l];
        const auto hi0 = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(Philox4x32::kMul0) * c0[l]) >> 32);
        const std::uint32_t lo1 = Philox4x32::kMul1 * c2[l];
        const auto hi1 = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(Philox4x32::kMul1) * c2[l]) >> 32);
        c0[l] = hi1 ^ c1[l] ^ k0;
        c1[l] = lo1;
        c2[l] = hi0 ^ c3[l] ^ k1;
        c3[l] = lo0;
      }
      k0 += Philox4x32::kWeyl0;
      k1 += Philox4x32::kWeyl1;
    }
    Out* const dst = out + 4 * b;
    for (std::size_t l = 0; l < kLanes; ++l) {
      dst[4 * l + 0] = map_word(c3[l], out);
      dst[4 * l + 1] = map_word(c2[l], out);
      dst[4 * l + 2] = map_word(c1[l], out);
      dst[4 * l + 3] = map_word(c0[l], out);
    }
    b += kLanes;
  }
  scalar_blocks(key, base, counter, out, b, num_blocks);
}

// The clones must wrap the template body in plain functions: target_clones
// resolves through an ifunc symbol, so each instantiation needs its own
// out-of-line definition.
EIM_PHILOX_CLONES
void generic_fill(const Philox4x32::Key key, const std::array<std::uint32_t, 2> base,
                  std::uint64_t counter, std::uint32_t* out,
                  std::size_t num_blocks) noexcept {
  generic_blocks(key, base, counter, out, num_blocks);
}

EIM_PHILOX_CLONES
void generic_fill(const Philox4x32::Key key, const std::array<std::uint32_t, 2> base,
                  std::uint64_t counter, float* out, std::size_t num_blocks) noexcept {
  generic_blocks(key, base, counter, out, num_blocks);
}

#if EIM_PHILOX_X86

// GCC 12 flags "__Y may be used uninitialized" inside avx512fintrin.h when
// mask intrinsics are inlined at -O3; the passthrough operand is genuinely
// unused under a constant mask, so the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Hand-scheduled AVX-512 kernel. Per 8-block group (one zmm of u64 lanes)
/// the state convention is: c0/c2 in the EVEN u32 half of each lane (where
/// vpmuludq reads its multiplicand), c1/c3 in the ODD half. A round is then
/// two multiplies, two three-way xors (vpternlogd) and four lane-fixup
/// shifts — no blends — with all ten round keys hoisted into broadcast
/// registers. Two groups run in flight to cover the multiply latency.
__attribute__((target("avx512f"))) inline void avx512_rounds(
    __m512i& zc0, __m512i& zc1, __m512i& zc2, __m512i& zc3, const __m512i m0,
    const __m512i m1, const __m512i* k0r, const __m512i* k1r) noexcept {
  for (int r = 0; r < Philox4x32::kRounds; ++r) {
    const __m512i p0 = _mm512_mul_epu32(zc0, m0);  // [lo0 even | hi0 odd]
    const __m512i p1 = _mm512_mul_epu32(zc2, m1);  // [lo1 even | hi1 odd]
    const __m512i t0 = _mm512_ternarylogic_epi32(p1, zc1, k0r[r], 0x96);
    const __m512i t2 = _mm512_ternarylogic_epi32(p0, zc3, k1r[r], 0x96);
    zc0 = _mm512_srli_epi64(t0, 32);  // n0 = hi1^c1^k0 -> even
    zc2 = _mm512_srli_epi64(t2, 32);  // n2 = hi0^c3^k1 -> even
    zc1 = _mm512_slli_epi64(p1, 32);  // n1 = lo1       -> odd
    zc3 = _mm512_slli_epi64(p0, 32);  // n3 = lo0       -> odd
  }
}

/// Pack one finished 8-block group into consumption order and store it.
/// `words` (<= 32) masks the two 16-word stores so a partial tail step never
/// writes past the caller's range. Consumption order per block is
/// [c3, c2, c1, c0]; pack as u64 halves w0 = c3|c2<<32, w1 = c1|c0<<32, then
/// interleave w0/w1 lanes.
template <typename Out>
__attribute__((target("avx512f"))) inline void avx512_emit(
    const __m512i zc0, const __m512i zc1, const __m512i zc2, const __m512i zc3,
    const __m512i idx_lo, const __m512i idx_hi, Out* dst,
    std::uint32_t words) noexcept {
  constexpr bool kFloat = std::is_same_v<Out, float>;
  const __m512i w0 =
      _mm512_or_epi64(_mm512_srli_epi64(zc3, 32), _mm512_slli_epi64(zc2, 32));
  const __m512i w1 =
      _mm512_or_epi64(_mm512_srli_epi64(zc1, 32), _mm512_slli_epi64(zc0, 32));
  const __m512i o0 = _mm512_permutex2var_epi64(w0, idx_lo, w1);
  const __m512i o1 = _mm512_permutex2var_epi64(w0, idx_hi, w1);
  const std::uint32_t hi_words = words > 16 ? words - 16 : 0;
  const auto mask0 = words >= 16 ? static_cast<__mmask16>(0xFFFF)
                                 : static_cast<__mmask16>((1u << words) - 1u);
  const auto mask1 = hi_words >= 16 ? static_cast<__mmask16>(0xFFFF)
                                    : static_cast<__mmask16>((1u << hi_words) - 1u);
  if constexpr (kFloat) {
    const __m512 scale = _mm512_set1_ps(0x1.0p-24f);
    const __m512 f0 =
        _mm512_mul_ps(_mm512_cvtepu32_ps(_mm512_srli_epi32(o0, 8)), scale);
    const __m512 f1 =
        _mm512_mul_ps(_mm512_cvtepu32_ps(_mm512_srli_epi32(o1, 8)), scale);
    _mm512_mask_storeu_ps(dst, mask0, f0);
    _mm512_mask_storeu_ps(dst + 16, mask1, f1);
  } else {
    _mm512_mask_storeu_epi32(dst, mask0, o0);
    _mm512_mask_storeu_epi32(dst + 16, mask1, o1);
  }
}

template <typename Out>
__attribute__((target("avx512f"))) void avx512_fill(
    const Philox4x32::Key key, const std::array<std::uint32_t, 2> base,
    std::uint64_t counter, Out* out, std::size_t num_blocks) noexcept {
  constexpr std::size_t kGroup = 8;   // blocks per zmm (u64 lanes)
  constexpr std::size_t kUnroll = 2;  // independent groups in flight
  constexpr std::size_t kStep = kGroup * kUnroll;

  const __m512i m0 = _mm512_set1_epi64(Philox4x32::kMul0);
  const __m512i m1 = _mm512_set1_epi64(Philox4x32::kMul1);
  __m512i k0r[Philox4x32::kRounds];
  __m512i k1r[Philox4x32::kRounds];
  {
    std::uint32_t k0 = key[0];
    std::uint32_t k1 = key[1];
    for (int r = 0; r < Philox4x32::kRounds; ++r) {
      k0r[r] = _mm512_set1_epi64(static_cast<std::uint64_t>(k0) << 32);
      k1r[r] = _mm512_set1_epi64(static_cast<std::uint64_t>(k1) << 32);
      k0 += Philox4x32::kWeyl0;
      k1 += Philox4x32::kWeyl1;
    }
  }
  const __m512i lo32 = _mm512_set1_epi64(0xFFFFFFFFll);
  const __m512i c2_init = _mm512_set1_epi64(base[0]);
  const __m512i c3_init = _mm512_set1_epi64(static_cast<std::uint64_t>(base[1]) << 32);
  const __m512i lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  // permutex2var indices interleaving the two packed halves of a group:
  // o0 = [w0_0, w1_0, .., w0_3, w1_3], o1 the upper four lanes.
  const __m512i idx_lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
  const __m512i idx_hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);

  std::size_t b = 0;
  while (num_blocks - b >= kStep) {
    __m512i zc0[kUnroll], zc1[kUnroll], zc2[kUnroll], zc3[kUnroll];
    for (std::size_t g = 0; g < kUnroll; ++g) {
      // Full 64-bit counters per lane: c0 = low word (even half), c1 = high
      // word (odd half); add_epi64 keeps the carry into c1 exact.
      const __m512i ctr = _mm512_add_epi64(
          _mm512_set1_epi64(static_cast<long long>(counter + b + g * kGroup)),
          lane_ids);
      zc0[g] = _mm512_and_epi64(ctr, lo32);
      zc1[g] = _mm512_andnot_epi64(lo32, ctr);
      zc2[g] = c2_init;
      zc3[g] = c3_init;
    }
    for (std::size_t g = 0; g < kUnroll; ++g) {
      avx512_rounds(zc0[g], zc1[g], zc2[g], zc3[g], m0, m1, k0r, k1r);
    }
    for (std::size_t g = 0; g < kUnroll; ++g) {
      avx512_emit(zc0[g], zc1[g], zc2[g], zc3[g], idx_lo, idx_hi,
                  out + 4 * (b + g * kGroup), 32);
    }
    b += kStep;
  }
  // Partial tail: masked stores keep the kernel path for >= 4 blocks (the
  // surplus lanes are computed and dropped); a shorter stub is cheaper
  // scalar.
  while (num_blocks - b >= 4) {
    const std::uint32_t words = static_cast<std::uint32_t>(4 * (num_blocks - b));
    const __m512i ctr = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(counter + b)), lane_ids);
    __m512i zc0 = _mm512_and_epi64(ctr, lo32);
    __m512i zc1 = _mm512_andnot_epi64(lo32, ctr);
    __m512i zc2 = c2_init;
    __m512i zc3 = c3_init;
    avx512_rounds(zc0, zc1, zc2, zc3, m0, m1, k0r, k1r);
    avx512_emit(zc0, zc1, zc2, zc3, idx_lo, idx_hi, out + 4 * b,
                words > 32 ? 32 : words);
    b += num_blocks - b >= kGroup ? kGroup : num_blocks - b;
  }
  scalar_blocks(key, base, counter, out, b, num_blocks);
}

#pragma GCC diagnostic pop

bool have_avx512f() noexcept {
#if defined(__clang__) || defined(__GNUC__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

#endif  // EIM_PHILOX_X86

}  // namespace

void RandomStream::fill_blocks(std::uint32_t* out, std::size_t num_blocks) noexcept {
#if EIM_PHILOX_X86
  if (have_avx512f()) {
    avx512_fill(key_, base_, counter_, out, num_blocks);
    counter_ += num_blocks;
    return;
  }
#endif
  generic_fill(key_, base_, counter_, out, num_blocks);
  counter_ += num_blocks;
}

void RandomStream::fill_blocks(float* out, std::size_t num_blocks) noexcept {
#if EIM_PHILOX_X86
  if (have_avx512f()) {
    avx512_fill(key_, base_, counter_, out, num_blocks);
    counter_ += num_blocks;
    return;
  }
#endif
  generic_fill(key_, base_, counter_, out, num_blocks);
  counter_ += num_blocks;
}

}  // namespace eim::support
