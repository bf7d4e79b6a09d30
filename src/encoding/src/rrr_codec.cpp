#include "eim/encoding/rrr_codec.hpp"

#include <cstring>
#include <limits>

#include "eim/encoding/varint.hpp"
#include "eim/support/crc32.hpp"
#include "eim/support/error.hpp"

namespace eim::encoding {

namespace {

// Fixed little-endian frame header:
//   magic(8) codec(1) num_sets(8) num_values(8) lengths_bytes(8)
//   payload_bytes(8) crc32c(4)
constexpr std::size_t kHeaderBytes = 8 + 1 + 8 + 8 + 8 + 8 + 4;
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

std::uint8_t* put_le(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t r = 0;
  for (int i = 0; i < bytes; ++i) r |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return r;
}

// Visits each member's delta: within each (strictly ascending) set the first
// member is absolute and every later one stores the gap minus one.
template <typename Fn>
void for_each_delta(std::span<const std::uint32_t> lengths,
                    std::span<const std::uint32_t> values, Fn&& fn) {
  const std::uint32_t* v = values.data();
  for (const std::uint32_t len : lengths) {
    if (len == 0) continue;
    fn(v[0]);
    for (std::uint32_t j = 1; j < len; ++j) fn(v[j] - v[j - 1] - 1);
    v += len;
  }
}

}  // namespace

std::vector<std::uint8_t> rrr_block_encode(std::span<const std::uint32_t> lengths,
                                           std::span<const std::uint32_t> values) {
  // Size the frame exactly, then write every varint once straight into it.
  std::size_t lengths_bytes = 0;
  for (const std::uint32_t len : lengths) lengths_bytes += varint_size(len);
  std::size_t payload_bytes = lengths_bytes;
  for_each_delta(lengths, values,
                 [&](std::uint32_t d) { payload_bytes += varint_size(d); });

  std::vector<std::uint8_t> frame(kHeaderBytes + payload_bytes);
  std::uint8_t* const payload = frame.data() + kHeaderBytes;
  std::uint8_t* p = payload;
  for (const std::uint32_t len : lengths) p = varint_write(p, len);
  for_each_delta(lengths, values, [&](std::uint32_t d) { p = varint_write(p, d); });

  std::uint8_t* h = frame.data();
  std::memcpy(h, kRrrBlockMagic.data(), kRrrBlockMagic.size());
  h += kRrrBlockMagic.size();
  *h++ = kRrrBlockCodecVarint;
  h = put_le(h, lengths.size(), 8);
  h = put_le(h, values.size(), 8);
  h = put_le(h, lengths_bytes, 8);
  h = put_le(h, payload_bytes, 8);
  put_le(h, support::crc32c(std::span<const std::uint8_t>(payload, payload_bytes)), 4);
  return frame;
}

DecodedRrrBlock rrr_block_decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) throw support::IoError("rrr block: truncated frame");
  const std::uint8_t* h = bytes.data();
  if (std::memcmp(h, kRrrBlockMagic.data(), kRrrBlockMagic.size()) != 0) {
    throw support::IoError("rrr block: bad magic");
  }
  h += kRrrBlockMagic.size();
  if (*h++ != kRrrBlockCodecVarint) throw support::IoError("rrr block: unknown codec id");
  const std::uint64_t num_sets = get_le(h, 8);
  const std::uint64_t num_values = get_le(h + 8, 8);
  const std::uint64_t lengths_bytes = get_le(h + 16, 8);
  const std::uint64_t payload_bytes = get_le(h + 24, 8);
  const auto crc = static_cast<std::uint32_t>(get_le(h + 32, 4));
  const auto payload = bytes.subspan(kHeaderBytes);
  if (payload.size() != payload_bytes || lengths_bytes > payload_bytes) {
    throw support::IoError("rrr block: truncated frame");
  }
  if (support::crc32c(payload) != crc) {
    throw support::IoError("rrr block: CRC-32C mismatch (torn or corrupt block)");
  }
  // Every varint takes at least one byte, so both counts are bounded by the
  // bytes actually present before anything is sized from them.
  if (num_sets > lengths_bytes || num_values > payload_bytes - lengths_bytes) {
    throw support::IoError("rrr block: header counts exceed the payload");
  }

  DecodedRrrBlock block;
  block.lengths.resize(num_sets);
  const std::uint8_t* p = payload.data();
  const std::uint8_t* const lengths_end = p + lengths_bytes;
  std::uint64_t total = 0;
  for (std::uint32_t& len : block.lengths) {
    len = varint_read<std::uint32_t>(p, lengths_end);
    total += len;
  }
  if (p != lengths_end) {
    throw support::IoError("rrr block: lengths section does not match header");
  }
  if (total != num_values) {
    throw support::IoError("rrr block: value count does not match header");
  }

  // Undo the delta transform in the same pass that reads the varints.
  block.values.resize(num_values);
  std::uint32_t* out = block.values.data();
  const std::uint8_t* const end = payload.data() + payload.size();
  for (const std::uint32_t len : block.lengths) {
    if (len == 0) continue;
    std::uint64_t prev = varint_read<std::uint32_t>(p, end);
    *out++ = static_cast<std::uint32_t>(prev);
    for (std::uint32_t j = 1; j < len; ++j) {
      prev += std::uint64_t{varint_read<std::uint32_t>(p, end)} + 1;
      if (prev > kMaxU32) throw support::IoError("rrr block: member overflows 32 bits");
      *out++ = static_cast<std::uint32_t>(prev);
    }
  }
  if (p != end) {
    throw support::IoError("rrr block: values section does not match header");
  }
  return block;
}

std::uint8_t rrr_block_codec(std::span<const std::uint8_t> bytes) {
  if (bytes.size() <= kRrrBlockMagic.size()) {
    throw support::IoError("rrr block: truncated frame");
  }
  return bytes[kRrrBlockMagic.size()];
}

}  // namespace eim::encoding
