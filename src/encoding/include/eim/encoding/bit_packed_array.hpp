// Log encoding (bit-packing) — the paper's §3.1 memory optimization.
//
// An array of integers is stored with n_b = bit_width(x_max) bits per value,
// concatenated across 32-bit containers exactly as in the paper's Figure 1;
// a value whose bits don't align to a container boundary spans two (or, for
// n_b > 32, up to three) containers.
//
// Thread-safety contract (this is the "thread-safe implementation of log
// encoding" the paper relies on during RRR-set generation): concurrent
// *writers to distinct indices* are safe via store_release(), which ORs each
// touched container atomically — storage starts zeroed and every index is
// written at most once, which is precisely the access pattern of Algorithm 2
// line 26 (each warp owns a disjoint slice of R). Readers may run
// concurrently with writers of other indices.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "eim/support/bits.hpp"

namespace eim::encoding {

class BitPackedArray {
 public:
  BitPackedArray() = default;

  /// Zero-initialized array of `size` slots, `bits_per_value` bits each
  /// (1..64).
  BitPackedArray(std::size_t size, std::uint32_t bits_per_value);

  /// Pack an existing sequence with the tightest width for its maximum.
  [[nodiscard]] static BitPackedArray encode(std::span<const std::uint64_t> values);
  [[nodiscard]] static BitPackedArray encode_u32(std::span<const std::uint32_t> values);

  /// Read slot `i`.
  [[nodiscard]] std::uint64_t get(std::size_t i) const noexcept;

  /// Write slot `i`; single-writer (read-modify-write of containers).
  void set(std::size_t i, std::uint64_t value) noexcept;

  /// Thread-safe publish of slot `i`, which must still hold zero.
  /// Distinct indices may be written concurrently from any number of
  /// threads; containers shared between neighboring slots are updated with
  /// atomic fetch_or.
  void store_release(std::size_t i, std::uint64_t value) noexcept;

  /// Thread-safe bulk publish of slots [first, first + values.size()),
  /// which must all still hold zero. Disjoint ranges may be written
  /// concurrently: only the (up to two) boundary containers shared with
  /// neighboring ranges use atomic fetch_or; interior containers — whose 32
  /// bits all belong to this range — are plain word stores fed by the
  /// streaming accumulator. This is the RRR commit fast path: a claimed
  /// slice publishes per word instead of per element.
  void store_release_range(std::size_t first,
                           std::span<const std::uint32_t> values) noexcept {
    store_release_range(first, values, [](std::uint32_t) {});
  }

  /// As above, but additionally invokes `on_value(values[k])` exactly once
  /// per value, in slot order, as it is folded into the streaming
  /// accumulator. Lets a caller fuse a per-element side effect — eIM's
  /// frequency-count update of C — into the single publish pass instead of
  /// re-walking the set after encoding (Alg. 2 lines 26-28 as one sweep).
  template <typename OnValue>
  void store_release_range(std::size_t first, std::span<const std::uint32_t> values,
                           OnValue&& on_value) noexcept {
    if (values.empty()) return;
    const std::uint64_t mask = support::low_mask64(bits_);
    const std::uint64_t bit = static_cast<std::uint64_t>(first) * bits_;
    std::size_t w = static_cast<std::size_t>(bit >> 5);
    const std::uint32_t head_bits = static_cast<std::uint32_t>(bit & 31);
    // The accumulator starts with head_bits of zeros so our first value
    // lands at the right in-word shift; the head word itself may hold a
    // neighboring range's bits, so it (and the partial tail word) publish
    // via fetch_or while fully-owned interior words are plain stores.
    // __extension__ keeps -Wpedantic quiet in including TUs (the .cpp's
    // encode path uses the same 128-bit accumulator).
    __extension__ using Acc = unsigned __int128;
    Acc acc = 0;
    std::uint32_t acc_bits = head_bits;
    bool shared_head = head_bits != 0;
    for (const std::uint32_t value : values) {
      on_value(value);
      acc |= static_cast<Acc>(static_cast<std::uint64_t>(value) & mask) << acc_bits;
      acc_bits += bits_;
      while (acc_bits >= 32) {
        const auto word = static_cast<std::uint32_t>(acc);
        if (shared_head) {
          std::atomic_ref<std::uint32_t>(containers_[w]).fetch_or(
              word, std::memory_order_release);
          shared_head = false;
        } else {
          containers_[w] = word;
        }
        ++w;
        acc >>= 32;
        acc_bits -= 32;
      }
    }
    if (acc_bits > 0) {
      std::atomic_ref<std::uint32_t>(containers_[w])
          .fetch_or(static_cast<std::uint32_t>(acc), std::memory_order_release);
    }
  }

  /// Bulk decode: out[j] = get(first + j). Word-streaming — each value is
  /// gathered from a 64-bit window over the containers instead of the
  /// per-element multi-branch loop in get(), which is what makes decoding
  /// whole RRR sets cheap (§3.1 consumers). Requires first + out.size()
  /// <= size().
  void decode_into(std::size_t first, std::span<std::uint64_t> out) const noexcept;

  /// Narrow bulk decode for vertex-id payloads; requires bits_per_value()
  /// <= 32 (values are truncated otherwise).
  void decode_into(std::size_t first, std::span<std::uint32_t> out) const noexcept;

  /// Bulk decode [first, first + count) into a fresh vector.
  [[nodiscard]] std::vector<std::uint64_t> decode_range(std::size_t first,
                                                        std::size_t count) const;

  /// Bulk encode counterpart: set(first + j, values[j]) via a streaming
  /// 128-bit accumulator flushed word-by-word. Single-writer, like set().
  void encode_into(std::size_t first, std::span<const std::uint64_t> values) noexcept;
  void encode_into(std::size_t first, std::span<const std::uint32_t> values) noexcept;

  /// Word-level copy of src slots [0, count) into this array's prefix.
  /// Requires identical bits_per_value, count <= min(size, src.size), and
  /// the destination prefix currently zero (fresh or cleared array) — the
  /// container words are OR-merged, not read-modify-written per slot.
  void assign_prefix(const BitPackedArray& src, std::size_t count) noexcept;

  /// Reset all slots to zero (not thread-safe).
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t bits_per_value() const noexcept { return bits_; }

  /// Bytes occupied by the container storage — the quantity Fig. 4 reports.
  /// Counts the logical words only, not the two zero pad words that let
  /// decode_into read a full 64-bit window past the last value.
  [[nodiscard]] std::uint64_t storage_bytes() const noexcept {
    return static_cast<std::uint64_t>(num_words_) * sizeof(std::uint32_t);
  }

  /// storage_bytes() of a `size`-slot array at `bits_per_value` bits,
  /// computed without building it.
  [[nodiscard]] static constexpr std::uint64_t storage_bytes_for(
      std::size_t size, std::uint32_t bits_per_value) noexcept {
    const std::uint64_t words =
        support::div_ceil<std::uint64_t>(static_cast<std::uint64_t>(size) * bits_per_value, 32);
    return words * sizeof(std::uint32_t);
  }

  /// Bytes the same data occupies un-encoded at the given element width.
  [[nodiscard]] std::uint64_t raw_bytes(std::uint32_t element_bytes = 4) const noexcept {
    return static_cast<std::uint64_t>(size_) * element_bytes;
  }

  /// Decode the full array.
  [[nodiscard]] std::vector<std::uint64_t> decode_all() const;

 private:
  std::size_t size_ = 0;
  std::uint32_t bits_ = 0;
  std::size_t num_words_ = 0;  ///< logical container words (excludes padding)
  std::vector<std::uint32_t> containers_;
};

}  // namespace eim::encoding
