// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) over byte ranges.
//
// The checksum behind every snapshot section, spill-block frame and artifact
// integrity check (support/snapshot.hpp, encoding/rrr_codec.hpp): software
// slice-by-8 — eight independent lookups per 8-byte step instead of a serial
// byte chain — over constexpr-built tables; dependency-free and usable at
// compile time. The reflected polynomial 0x82F63B78 matches SSE4.2 crc32
// instructions and iSCSI/ext4, so externally produced checksums of the same
// bytes agree.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace eim::support {

namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] is the register after
/// byte b and then k zero bytes, so one 8-byte step is eight lookups XORed.
inline constexpr Crc32cTables make_crc32c_tables() noexcept {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Incremental update: feed `prev` the running value from a previous call
/// (or leave the default to start a fresh checksum).
[[nodiscard]] constexpr std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                                             std::uint32_t prev = 0) noexcept {
  const auto& t = detail::kCrc32cTables;
  std::uint32_t crc = ~prev;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ crc;
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

[[nodiscard]] inline std::uint32_t crc32c(std::string_view text,
                                          std::uint32_t prev = 0) noexcept {
  return crc32c(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
                prev);
}

}  // namespace eim::support
