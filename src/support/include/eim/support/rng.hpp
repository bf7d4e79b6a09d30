// Counter-based random number generation.
//
// All randomness in the library flows through Philox4x32-10 (Salmon et al.,
// SC'11), a counter-based generator: output = f(key, counter). Two properties
// matter for this codebase:
//
//  * Determinism under parallelism. A sampler seeded with (seed, stream)
//    produces the same numbers no matter which CPU thread runs it, so
//    simulator kernels are bit-reproducible regardless of scheduling —
//    mirroring how CUDA samplers derive per-thread Philox streams.
//  * Cheap splitting. Every (block, sample, lane) gets an independent stream
//    by mixing ids into the key; no shared state, no locks.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "eim/support/metrics.hpp"

namespace eim::support {

/// Raw Philox4x32-10 block function: 128-bit counter + 64-bit key -> 128 bits.
struct Philox4x32 {
  using Counter = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;

  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;
  static constexpr int kRounds = 10;

  /// One keyed permutation of the counter block.
  [[nodiscard]] static Counter apply(Counter ctr, Key key) noexcept {
    for (int r = 0; r < kRounds; ++r) {
      const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * ctr[0];
      const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * ctr[2];
      const auto hi0 = static_cast<std::uint32_t>(p0 >> 32);
      const auto lo0 = static_cast<std::uint32_t>(p0);
      const auto hi1 = static_cast<std::uint32_t>(p1 >> 32);
      const auto lo1 = static_cast<std::uint32_t>(p1);
      ctr = {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    return ctr;
  }
};

/// Mix an arbitrary list of 64-bit ids into a single stream id
/// (SplitMix64 finalizer chain). Used to derive independent sub-streams,
/// e.g. stream = derive_stream(block_id, sample_index).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename... Ids>
[[nodiscard]] constexpr std::uint64_t derive_stream(std::uint64_t first, Ids... rest) noexcept {
  std::uint64_t h = splitmix64(first);
  // Order-sensitive combine (hash_combine style): the running hash is
  // remixed before each xor so (a, b) and (b, a) land in different streams.
  ((h = splitmix64(h * 0x9E3779B97F4A7C15ull ^
                   splitmix64(static_cast<std::uint64_t>(rest)))),
   ...);
  return h;
}

/// A deterministic random stream identified by (seed, stream).
///
/// Satisfies the UniformRandomBitGenerator requirements, so it also plugs
/// into <random> distributions where convenient.
class RandomStream {
 public:
  using result_type = std::uint32_t;

  RandomStream() noexcept : RandomStream(0, 0) {}

  RandomStream(std::uint64_t seed, std::uint64_t stream) noexcept
      : key_{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32)},
        base_{static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)},
        counter_(0),
        cached_(0) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xFFFFFFFFu; }

  /// Next 32 uniform random bits.
  result_type operator()() noexcept { return next_u32(); }

  result_type next_u32() noexcept {
    if (cached_ == 0) refill();
    return block_[--cached_];
  }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t hi = next_u32();
    return (hi << 32) | next_u32();
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1); the precision a CUDA curand_uniform would give.
  float next_float() noexcept {
    return static_cast<float>(next_u32() >> 8) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint32_t next_below(std::uint32_t bound) noexcept {
    if (bound <= 1) return 0;
    std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (lo < threshold) {
        m = static_cast<std::uint64_t>(next_u32()) * bound;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Bulk generation: exactly the next `out.size()` values of the scalar
  /// next_u32() sequence, leaving the stream in the same state as that many
  /// scalar calls. The whole-block middle runs the Philox rounds over a
  /// batch of independent counters laid out lane-wise, so the compiler can
  /// vectorize the 32x32->64 multiplies across blocks.
  void fill_u32(std::span<std::uint32_t> out) noexcept {
    fill_impl(out.data(), out.size(), [](std::uint32_t v) { return v; });
  }

  /// Bulk next_float(): bit-identical to out.size() scalar calls.
  void fill_floats(std::span<float> out) noexcept {
    fill_impl(out.data(), out.size(), [](std::uint32_t v) {
      return static_cast<float>(v >> 8) * 0x1.0p-24f;
    });
  }

  /// Reposition the stream at draw-block `counter` (each block is 4 u32s).
  void seek(std::uint64_t counter) noexcept {
    counter_ = counter;
    cached_ = 0;
  }

  [[nodiscard]] std::uint64_t block_counter() const noexcept { return counter_; }

  /// u32 draws consumed since construction (or the last seek target). The
  /// pair u32_position()/seek_u32() brackets speculative bulk generation:
  /// a consumer may over-generate draws and then rewind to the exact
  /// mid-block position of what it actually used.
  [[nodiscard]] std::uint64_t u32_position() const noexcept {
    return counter_ * 4 - cached_;
  }

  /// Reposition so the next next_u32() is draw number `pos` of the stream.
  void seek_u32(std::uint64_t pos) noexcept {
    seek(pos >> 2);
    for (std::uint64_t i = 0; i < (pos & 3); ++i) (void)next_u32();
  }

 private:
  // Whole-block middle of a bulk fill: writes 4 * num_blocks draws in scalar
  // consumption order and advances counter_. Out of line (rng.cpp) and
  // compiled as runtime-dispatched ISA clones — the Philox lane loop
  // vectorizes to whatever width the host CPU has, while this header (and
  // the committed baselines) stay arch-portable.
  void fill_blocks(std::uint32_t* out, std::size_t num_blocks) noexcept;
  void fill_blocks(float* out, std::size_t num_blocks) noexcept;

  template <typename Out, typename Map>
  void fill_impl(Out* out, std::size_t n, Map map) noexcept {
    std::size_t i = 0;
    // Drain the cached partial block first — scalar consumption order.
    while (cached_ != 0 && i < n) out[i++] = map(block_[--cached_]);

    const std::size_t blocks = (n - i) / 4;
    if (blocks != 0) {
      fill_blocks(out + i, blocks);
      i += 4 * blocks;
    }
    // Tail: refill the cache like the scalar path would and take a prefix,
    // leaving cached_ mid-block exactly as n scalar calls would have.
    if (i < n) {
      refill();
      while (i < n) out[i++] = map(block_[--cached_]);
    }
  }

  void refill() noexcept {
    const Philox4x32::Counter ctr{static_cast<std::uint32_t>(counter_),
                                  static_cast<std::uint32_t>(counter_ >> 32), base_[0],
                                  base_[1]};
    block_ = Philox4x32::apply(ctr, key_);
    ++counter_;
    cached_ = 4;
  }

  Philox4x32::Key key_;
  std::array<std::uint32_t, 2> base_;
  std::uint64_t counter_;
  Philox4x32::Counter block_{};
  unsigned cached_;
};

/// "No success in any remaining trial" sentinel for geometric_skip.
inline constexpr std::uint64_t kGeometricNever = ~std::uint64_t{0};

/// One geometric skip-ahead draw: the number of Bernoulli(p) failures before
/// the next success, sampled by inversion from a single uniform —
/// floor(log(u) / log1p(-p)). `log1p_neg_p` is the caller-cached log1p(-p),
/// which must be finite and strictly negative (0 < p < 1; the p == 0 and
/// p >= 1 degenerate cases take their own branches in the sampler).
///
/// With p quantized to the 24-bit draw grid (graph::grid_success_probability)
/// the skip count is distributed exactly like counting consecutive failures
/// of the strict `next_float() < w` per-edge test — the basis of the
/// fast-draw mode's statistical equivalence to the exact sampler.
///
/// Kept out of line ([[gnu::noinline]], like FloatDrawBuffer::refill) so
/// sampling-profiler frames attribute skip arithmetic to the rng.skip
/// bucket instead of dissolving into the BFS loop.
[[gnu::noinline]] inline std::uint64_t geometric_skip(RandomStream& rng,
                                                      double log1p_neg_p) noexcept {
  const double u = rng.next_double();
  // next_double() is in [0, 1); u == 0 would send log() to -inf, which is
  // the correct limit (an infinitely long failure run) — map it explicitly.
  if (u <= 0.0) return kGeometricNever;
  const double k = std::log(u) / log1p_neg_p;
  if (!(k < static_cast<double>(kGeometricNever))) return kGeometricNever;
  return static_cast<std::uint64_t>(k);
}

/// FIFO over a RandomStream's next_float() sequence, refilled with
/// fill_floats so the hot consumers (the Monte Carlo BFS edge sweeps) read
/// activation draws from a flat array instead of paying a function call and
/// a refill branch per draw. Draws are handed out in exact stream order, so
/// a loop that takes one draw per unvisited neighbor consumes the identical
/// sequence the scalar code did — bit-parity by construction.
///
/// The consumption state lives in a by-value Cursor the caller keeps in
/// locals: the edge sweep reads `c.p[t]` and bumps `c.p`/`c.avail` itself,
/// so the hot loop touches no buffer members at all (member traffic per
/// vertex was measurably slower across deep cascades). Only a refill — rare
/// by construction — goes through the buffer object.
///
/// Usage per sample:
///   auto c = buf.begin_sample(rng);
///   ... per frontier vertex: c = buf.ensure(c, rng, degree, pending);
///       ... c.p[t++] ... then c.p += t; c.avail -= t;
///   buf.finish_sample(rng, c);  // rewinds rng to exactly what was consumed
///
/// finish_sample repositions the stream at the draws actually taken, so
/// over-generated draws (visited neighbors skip theirs) are observationally
/// free: callers that keep using `rng` afterwards see the scalar sequence.
class FloatDrawBuffer {
 public:
  /// Register-resident view of the unconsumed draws: `p` is the next draw,
  /// `avail` how many are valid at `p`. Invalidated by ensure() — always
  /// reassign from its return value.
  struct Cursor {
    const float* p;
    std::size_t avail;
  };

  [[nodiscard]] Cursor begin_sample(const RandomStream& rng) noexcept {
    generated_ = 0;
    start_ = rng.u32_position();
    return Cursor{buf_.data(), 0};
  }

  /// Make at least `n` draws available at the returned cursor. When a
  /// refill is needed it is sized to `lookahead` (>= n): the caller's
  /// estimate of total outstanding demand — for a BFS, the in-degree sum of
  /// every queued vertex. Demand-sized fills are what make batching win: a
  /// cascade that dies young generates no more Philox blocks than the
  /// scalar loop would, while a wide frontier turns into one lane-parallel
  /// fill instead of a block every four draws. Surplus carries over to
  /// later ensure() calls, and finish_sample() rewinds the stream past only
  /// what was consumed, so over-generation is observationally invisible.
  [[nodiscard]] Cursor ensure(Cursor c, RandomStream& rng, std::size_t n,
                              std::size_t lookahead) {
    if (c.avail >= n) return c;
    return refill(c, rng, lookahead > n ? lookahead : n);
  }
  [[nodiscard]] Cursor ensure(Cursor c, RandomStream& rng, std::size_t n) {
    return ensure(c, rng, n, n);
  }

  /// Rewind `rng` to the position of the draws actually consumed, as if
  /// they had been taken one next_float() at a time. Free when every
  /// generated draw was consumed (the common case for shallow cascades,
  /// whose first refill is sized exactly to the request).
  void finish_sample(RandomStream& rng, Cursor c) const noexcept {
    const std::uint64_t pos = start_ + (generated_ - c.avail);
    if (rng.u32_position() != pos) rng.seek_u32(pos);
  }

  /// Attach (nullptr detaches) a wall timer for refills. Only fills of at
  /// least kTimedRefillDraws draws are timed. Refills run inside the BFS
  /// sweep, so the measurement itself perturbs the hot path: two clock
  /// reads plus RMWs on one histogram shared by every worker. Timing every
  /// mid-size refill at 256 draws measured ~8% end-to-end; at 4096 only
  /// the demand-burst tail is timed — the fill dwarfs the measurement and
  /// the sampling profiler attributes the common case statistically.
  void attach_refill_timer(metrics::Histogram* timer) noexcept {
    refill_timer_ = timer;
  }
  static constexpr std::size_t kTimedRefillDraws = 2048;

 private:
  // Out of line on purpose: keeping the cold path off the sweep's inlined
  // footprint is what lets the Cursor fast path stay branch + array read.
  [[gnu::noinline]] Cursor refill(Cursor c, RandomStream& rng, std::size_t target) {
    if (c.avail != 0) {  // compact the unconsumed suffix to the front
      std::copy(c.p, c.p + c.avail, buf_.begin());
    }
    if (buf_.size() < target) {
      // The surplus was already copied to the front; resize preserves it.
      buf_.resize(target);
    }
    const std::size_t fresh = target - c.avail;
    {
      const metrics::ScopedWall fill_scope(fresh >= kTimedRefillDraws ? refill_timer_
                                                                      : nullptr);
      rng.fill_floats(std::span<float>(buf_.data() + c.avail, fresh));
    }
    generated_ += fresh;
    return Cursor{buf_.data(), target};
  }

  std::vector<float> buf_;
  std::uint64_t generated_ = 0;
  std::uint64_t start_ = 0;
  metrics::Histogram* refill_timer_ = nullptr;
};

}  // namespace eim::support
