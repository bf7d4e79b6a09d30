#include "eim/encoding/varint.hpp"

namespace eim::encoding {

std::vector<std::uint8_t> varint_encode(std::span<const std::uint64_t> values) {
  std::size_t size = 0;
  for (const std::uint64_t v : values) size += varint_size(v);
  std::vector<std::uint8_t> out(size);
  std::uint8_t* at = out.data();
  for (const std::uint64_t v : values) at = varint_write(at, v);
  return out;
}

std::vector<std::uint64_t> varint_decode(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> out;
  const std::uint8_t* at = bytes.data();
  const std::uint8_t* const end = at + bytes.size();
  while (at != end) out.push_back(varint_read<std::uint64_t>(at, end));
  return out;
}

}  // namespace eim::encoding
