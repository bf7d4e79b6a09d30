// Compressed, self-verifying RRR spill-block codec.
//
// A spill block packs a batch of decoded RRR sets into one frame for the
// tiered store's host and disk tiers (docs/RESILIENCE.md "Memory-pressure
// tiers"): per-set lengths, then every member delta-transformed — each set
// is strictly ascending, so `v[0], v[j]-v[j-1]-1, ...` are small symbols —
// and LEB128 varint coded. One encoding for the set shape, as HBMax picks
// (arXiv:2208.00613): a per-block Huffman candidate never won on the spill
// workloads, so its codec id is retired and rejected on decode. A CRC-32C
// over the payload makes torn or bit-flipped blocks detectable on the way
// back up; the store quarantines and resamples a failing block instead of
// trusting it. Decode also rejects checksum-valid frames whose contents are
// not a valid batch, and sizes nothing from a header field before bounding
// it by the bytes present.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace eim::encoding {

inline constexpr std::string_view kRrrBlockMagic = "EIMSPIL1";
inline constexpr std::uint8_t kRrrBlockCodecVarint = 0;
inline constexpr std::uint8_t kRrrBlockCodecHuffman = 1;  ///< retired: decode rejects it

struct DecodedRrrBlock {
  std::vector<std::uint32_t> lengths;  ///< one entry per set
  std::vector<std::uint32_t> values;   ///< concatenated sets, each ascending
};

/// Encode a batch of sets (`values` holds the concatenation of `lengths`
/// ascending runs) into one framed block.
[[nodiscard]] std::vector<std::uint8_t> rrr_block_encode(
    std::span<const std::uint32_t> lengths, std::span<const std::uint32_t> values);

/// Decode a framed block. Throws support::IoError on bad magic, an unknown
/// codec id, truncation, CRC mismatch (the message names the CRC so callers
/// can distinguish corruption from framing bugs), or contents inconsistent
/// with the header.
[[nodiscard]] DecodedRrrBlock rrr_block_decode(std::span<const std::uint8_t> bytes);

/// The frame's codec byte (always kRrrBlockCodecVarint from the encoder).
[[nodiscard]] std::uint8_t rrr_block_codec(std::span<const std::uint8_t> bytes);

}  // namespace eim::encoding
