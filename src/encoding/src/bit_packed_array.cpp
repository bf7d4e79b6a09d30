#include "eim/encoding/bit_packed_array.hpp"

#include <algorithm>

#include "eim/support/error.hpp"

namespace eim::encoding {

using support::low_mask64;

BitPackedArray::BitPackedArray(std::size_t size, std::uint32_t bits_per_value)
    : size_(size), bits_(bits_per_value) {
  EIM_CHECK_MSG(bits_per_value >= 1 && bits_per_value <= 64,
                "bits_per_value must be in [1, 64]");
  num_words_ = static_cast<std::size_t>(storage_bytes_for(size, bits_per_value) /
                                        sizeof(std::uint32_t));
  // Two zero pad words so decode_into can unconditionally read a 64-bit
  // window at any starting word (and one word beyond for n_b > 32 values
  // that straddle three containers). storage_bytes() excludes them.
  containers_.assign(num_words_ + 2, 0u);
}

BitPackedArray BitPackedArray::encode(std::span<const std::uint64_t> values) {
  std::uint64_t max_value = 0;
  for (const std::uint64_t v : values) max_value = std::max(max_value, v);
  BitPackedArray packed(values.size(), support::bit_width_for_value(max_value));
  packed.encode_into(0, values);
  return packed;
}

BitPackedArray BitPackedArray::encode_u32(std::span<const std::uint32_t> values) {
  std::uint32_t max_value = 0;
  for (const std::uint32_t v : values) max_value = std::max(max_value, v);
  BitPackedArray packed(values.size(), support::bit_width_for_value(max_value));
  packed.encode_into(0, values);
  return packed;
}

std::uint64_t BitPackedArray::get(std::size_t i) const noexcept {
  const std::uint64_t first_bit = static_cast<std::uint64_t>(i) * bits_;
  std::size_t container = static_cast<std::size_t>(first_bit / 32);
  std::uint32_t shift = static_cast<std::uint32_t>(first_bit % 32);
  std::uint64_t out = 0;
  std::uint32_t produced = 0;
  while (produced < bits_) {
    const std::uint32_t take = std::min(32 - shift, bits_ - produced);
    const std::uint64_t chunk =
        (static_cast<std::uint64_t>(containers_[container]) >> shift) &
        low_mask64(take);
    out |= chunk << produced;
    produced += take;
    ++container;
    shift = 0;
  }
  return out;
}

void BitPackedArray::set(std::size_t i, std::uint64_t value) noexcept {
  const std::uint64_t first_bit = static_cast<std::uint64_t>(i) * bits_;
  std::size_t container = static_cast<std::size_t>(first_bit / 32);
  std::uint32_t shift = static_cast<std::uint32_t>(first_bit % 32);
  std::uint64_t v = value & low_mask64(bits_);
  std::uint32_t consumed = 0;
  while (consumed < bits_) {
    const std::uint32_t take = std::min(32 - shift, bits_ - consumed);
    const auto mask = static_cast<std::uint32_t>(low_mask64(take)) << shift;
    const auto chunk = static_cast<std::uint32_t>(v & low_mask64(take)) << shift;
    containers_[container] = (containers_[container] & ~mask) | chunk;
    v >>= take;
    consumed += take;
    ++container;
    shift = 0;
  }
}

void BitPackedArray::store_release(std::size_t i, std::uint64_t value) noexcept {
  const std::uint64_t first_bit = static_cast<std::uint64_t>(i) * bits_;
  std::size_t container = static_cast<std::size_t>(first_bit / 32);
  std::uint32_t shift = static_cast<std::uint32_t>(first_bit % 32);
  std::uint64_t v = value & low_mask64(bits_);
  std::uint32_t consumed = 0;
  while (consumed < bits_) {
    const std::uint32_t take = std::min(32 - shift, bits_ - consumed);
    const auto chunk = static_cast<std::uint32_t>(v & low_mask64(take)) << shift;
    // Slot i held zero, so OR-ing publishes our bits without disturbing the
    // neighbor slots that share this container.
    std::atomic_ref<std::uint32_t>(containers_[container])
        .fetch_or(chunk, std::memory_order_release);
    v >>= take;
    consumed += take;
    ++container;
    shift = 0;
  }
}

namespace {

/// Word-streaming gather shared by the decode_into overloads. Every value
/// starts at bit offset `bit`; its up-to-33 container-spanning bits always
/// fit the 64-bit window [word, word+2), plus (for n_b > 32 with a nonzero
/// intra-word shift) spillover from word+2 — which the two pad words make
/// safe to read unconditionally even at the array's tail.
template <typename Out>
void decode_words(const std::uint32_t* words, std::uint32_t bits, std::uint64_t bit,
                  Out* out, std::size_t count) noexcept {
  const std::uint64_t mask = low_mask64(bits);
  if (bits <= 32) {
    for (std::size_t j = 0; j < count; ++j, bit += bits) {
      const std::size_t w = static_cast<std::size_t>(bit >> 5);
      const std::uint32_t sh = static_cast<std::uint32_t>(bit & 31);
      const std::uint64_t pair =
          static_cast<std::uint64_t>(words[w]) |
          (static_cast<std::uint64_t>(words[w + 1]) << 32);
      out[j] = static_cast<Out>((pair >> sh) & mask);
    }
    return;
  }
  for (std::size_t j = 0; j < count; ++j, bit += bits) {
    const std::size_t w = static_cast<std::size_t>(bit >> 5);
    const std::uint32_t sh = static_cast<std::uint32_t>(bit & 31);
    std::uint64_t value =
        (static_cast<std::uint64_t>(words[w]) |
         (static_cast<std::uint64_t>(words[w + 1]) << 32)) >> sh;
    // Third-word spillover contributes bits [64-sh, 64); the two-step shift
    // is branchless-safe for sh == 0 (where it yields zero, as it must).
    value |= (static_cast<std::uint64_t>(words[w + 2]) << 1) << (63 - sh);
    out[j] = static_cast<Out>(value & mask);
  }
}

}  // namespace

void BitPackedArray::decode_into(std::size_t first,
                                 std::span<std::uint64_t> out) const noexcept {
  decode_words(containers_.data(), bits_,
               static_cast<std::uint64_t>(first) * bits_, out.data(), out.size());
}

void BitPackedArray::decode_into(std::size_t first,
                                 std::span<std::uint32_t> out) const noexcept {
  decode_words(containers_.data(), bits_,
               static_cast<std::uint64_t>(first) * bits_, out.data(), out.size());
}

std::vector<std::uint64_t> BitPackedArray::decode_range(std::size_t first,
                                                        std::size_t count) const {
  std::vector<std::uint64_t> out(count);
  decode_into(first, out);
  return out;
}

namespace {

/// Streaming bulk encode shared by the encode_into overloads. A 128-bit
/// accumulator (shift + n_b can exceed 64) collects values and flushes full
/// 32-bit containers; the partial head/tail words are merge-written so
/// neighbor slots sharing them are preserved.
template <typename In>
void encode_words(std::uint32_t* words, std::uint32_t bits, std::uint64_t bit,
                  const In* values, std::size_t count) noexcept {
  if (count == 0) return;
  const std::uint64_t mask = low_mask64(bits);
  std::size_t w = static_cast<std::size_t>(bit >> 5);
  const std::uint32_t head_bits = static_cast<std::uint32_t>(bit & 31);
  using Acc = unsigned __int128;
  Acc acc = words[w] & support::low_mask32(head_bits);
  std::uint32_t acc_bits = head_bits;
  for (std::size_t j = 0; j < count; ++j) {
    acc |= static_cast<Acc>(static_cast<std::uint64_t>(values[j]) & mask) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 32) {
      words[w++] = static_cast<std::uint32_t>(acc);
      acc >>= 32;
      acc_bits -= 32;
    }
  }
  if (acc_bits > 0) {
    words[w] = (words[w] & ~support::low_mask32(acc_bits)) |
               static_cast<std::uint32_t>(acc);
  }
}

}  // namespace

void BitPackedArray::encode_into(std::size_t first,
                                 std::span<const std::uint64_t> values) noexcept {
  encode_words(containers_.data(), bits_,
               static_cast<std::uint64_t>(first) * bits_, values.data(), values.size());
}

void BitPackedArray::encode_into(std::size_t first,
                                 std::span<const std::uint32_t> values) noexcept {
  encode_words(containers_.data(), bits_,
               static_cast<std::uint64_t>(first) * bits_, values.data(), values.size());
}

void BitPackedArray::assign_prefix(const BitPackedArray& src,
                                   std::size_t count) noexcept {
  const std::uint64_t total_bits = static_cast<std::uint64_t>(count) * bits_;
  const std::size_t full_words = static_cast<std::size_t>(total_bits / 32);
  std::copy_n(src.containers_.begin(), full_words, containers_.begin());
  const std::uint32_t tail_bits = static_cast<std::uint32_t>(total_bits % 32);
  if (tail_bits != 0) {
    // The destination prefix is zero per contract, so OR-ing the masked
    // tail preserves whatever the caller already wrote beyond `count`.
    containers_[full_words] |= src.containers_[full_words] & support::low_mask32(tail_bits);
  }
}

void BitPackedArray::clear() noexcept {
  std::fill(containers_.begin(), containers_.end(), 0u);
}

std::vector<std::uint64_t> BitPackedArray::decode_all() const {
  std::vector<std::uint64_t> out(size_);
  decode_into(0, out);
  return out;
}

}  // namespace eim::encoding
