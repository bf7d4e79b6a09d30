// LEB128 varint codec.
//
// The comparison codec the log-encoding design was chosen over: varint has
// finer per-value adaptivity but data-dependent branches and no O(1) random
// access, which is why the paper picks bit-packing for GPU decompression
// (§3.1). The ablation bench contrasts their sizes and decode throughput.
// It is also the spill-block codec (rrr_codec.hpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "eim/support/error.hpp"

namespace eim::encoding {

/// Bytes the encoding of `value` takes (1-10).
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) noexcept {
  return 1 + static_cast<std::size_t>(std::bit_width(value | 1u) - 1) / 7;
}

/// Write the encoding of `value` at `out`, which must have room for
/// varint_size(value) bytes; returns one past the last byte written.
inline std::uint8_t* varint_write(std::uint8_t* out, std::uint64_t value) noexcept {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value) | 0x80u;
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

/// Read one varint at `at` and advance past it, never reading `end` or
/// beyond. Throws IoError on truncation or a value that does not fit T
/// (std::uint32_t or std::uint64_t).
template <typename T>
[[nodiscard]] T varint_read(const std::uint8_t*& at, const std::uint8_t* end) {
  if (at != end && *at < 0x80) return *at++;
  std::uint64_t value = 0;
  for (int shift = 0; shift < std::numeric_limits<T>::digits; shift += 7) {
    if (at == end) throw support::IoError("truncated varint stream");
    const std::uint8_t b = *at++;
    value |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      if (value > std::numeric_limits<T>::max()) break;
      return static_cast<T>(value);
    }
  }
  throw support::IoError(sizeof(T) == 4 ? "varint overflows 32 bits"
                                        : "varint overflows 64 bits");
}

/// Encode a whole sequence.
[[nodiscard]] std::vector<std::uint8_t> varint_encode(std::span<const std::uint64_t> values);

/// Decode all varints in `bytes`. Throws IoError on truncation/overflow.
[[nodiscard]] std::vector<std::uint64_t> varint_decode(std::span<const std::uint8_t> bytes);

}  // namespace eim::encoding
