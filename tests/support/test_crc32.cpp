// Slice-by-8 CRC-32C pinned against a bitwise, byte-at-a-time reference (crc32.hpp).
#include "eim/support/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace eim::support {
namespace {

// crc32c must stay usable at compile time. "123456789" runs one 8-byte step
// plus a one-byte tail; 32 zero bytes (RFC 3720) run four full steps.
static_assert(crc32c(std::array<std::uint8_t, 9>{'1', '2', '3', '4', '5', '6', '7',
                                                 '8', '9'}) == 0xE3069283u);
static_assert(crc32c(std::array<std::uint8_t, 32>{}) == 0x8A9136AAu);

// The textbook bitwise definition, independent of the production tables.
std::uint32_t reference_crc32c(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = ~0u;
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (auto& b : bytes) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(s >> 56);
  }
  return bytes;
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = pseudo_random_bytes(8 + 67);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const auto view = std::span<const std::uint8_t>(buf).subspan(offset, len);
      ASSERT_EQ(crc32c(view), reference_crc32c(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, ChainsAtEverySplitPoint) {
  const std::vector<std::uint8_t> buf = pseudo_random_bytes(67);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    const auto whole = std::span<const std::uint8_t>(buf).first(len);
    const std::uint32_t expected = reference_crc32c(whole);
    for (std::size_t split = 0; split <= len; ++split) {
      ASSERT_EQ(crc32c(whole.subspan(split), crc32c(whole.first(split))), expected)
          << "length " << len << " split " << split;
    }
  }
}

}  // namespace
}  // namespace eim::support
