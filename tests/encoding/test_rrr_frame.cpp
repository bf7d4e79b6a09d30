// Spill-frame pinning and hardening (rrr_codec.hpp): golden bytes, frames
// whose CRC is intact but whose contents are invalid, and a seeded mutation
// sweep over real frames that must only ever decode or throw IoError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "eim/encoding/rrr_codec.hpp"
#include "eim/support/crc32.hpp"
#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::encoding {
namespace {

using support::IoError;

// Frame header offsets: magic(8) codec(1) num_sets(8) num_values(8)
// lengths_bytes(8) payload_bytes(8) crc32c(4), then the payload.
constexpr std::size_t kCodecAt = 8;
constexpr std::size_t kNumSetsAt = 9;
constexpr std::size_t kNumValuesAt = 17;
constexpr std::size_t kLengthsBytesAt = 25;
constexpr std::size_t kPayloadBytesAt = 33;
constexpr std::size_t kCrcAt = 41;
constexpr std::size_t kHeaderBytes = 45;

void put_le(std::vector<std::uint8_t>& frame, std::size_t at, std::uint64_t v,
            std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    frame[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void reseal(std::vector<std::uint8_t>& frame) {
  put_le(frame, kCrcAt,
         support::crc32c(std::span<const std::uint8_t>(frame).subspan(kHeaderBytes)), 4);
}

/// A well-sealed frame with arbitrary header counts and payload bytes.
std::vector<std::uint8_t> make_frame(std::uint64_t num_sets, std::uint64_t num_values,
                                     const std::vector<std::uint8_t>& lengths,
                                     const std::vector<std::uint8_t>& values) {
  std::vector<std::uint8_t> frame(kHeaderBytes + lengths.size() + values.size());
  std::copy(kRrrBlockMagic.begin(), kRrrBlockMagic.end(), frame.begin());
  frame[kCodecAt] = kRrrBlockCodecVarint;
  put_le(frame, kNumSetsAt, num_sets, 8);
  put_le(frame, kNumValuesAt, num_values, 8);
  put_le(frame, kLengthsBytesAt, lengths.size(), 8);
  put_le(frame, kPayloadBytesAt, lengths.size() + values.size(), 8);
  std::copy(values.begin(), values.end(),
            std::copy(lengths.begin(), lengths.end(), frame.begin() + kHeaderBytes));
  reseal(frame);
  return frame;
}

void expect_io_error(const std::vector<std::uint8_t>& frame, const std::string& what) {
  try {
    (void)rrr_block_decode(frame);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Five sets: an empty one, multi-byte gaps, and a member at UINT32_MAX.
const std::vector<std::uint32_t> kSmallLengths = {3, 0, 1, 4, 2};
const std::vector<std::uint32_t> kSmallValues = {
    0, 1, 2, 4294967295u, 5, 130, 16385, 2097200, 7, 1000000};

/// A spill-sized block: 1024 sets of 0-23 members with gaps up to 3000.
void lcg_batch(std::vector<std::uint32_t>& lengths, std::vector<std::uint32_t>& values) {
  std::uint64_t s = 12345;
  const auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(s >> 33);
  };
  for (int i = 0; i < 1024; ++i) {
    const std::uint32_t len = next() % 24;
    lengths.push_back(len);
    std::uint32_t v = next() % 50000;
    for (std::uint32_t j = 0; j < len; ++j) {
      values.push_back(v);
      v += 1 + next() % 3000;
    }
  }
}

// Bytes recorded from the encoder that still tried a Huffman candidate per
// block; varint won each of these, so dropping the candidate must not move
// a single byte.
TEST(RrrFrameGolden, SmallBatchBytesAreUnchanged) {
  const std::vector<std::uint8_t> golden = {
      0x45, 0x49, 0x4d, 0x53, 0x50, 0x49, 0x4c, 0x31, 0x00, 0x05, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0xe7, 0xbd, 0xc7, 0x03, 0x00, 0x01,
      0x04, 0x02, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x05, 0x7c,
      0xfe, 0x7e, 0xae, 0x80, 0x7f, 0x07, 0xb8, 0x84, 0x3d};
  EXPECT_EQ(rrr_block_encode(kSmallLengths, kSmallValues), golden);
}

TEST(RrrFrameGolden, EmptyBatchBytesAreUnchanged) {
  std::vector<std::uint8_t> golden(kHeaderBytes, 0);
  std::copy(kRrrBlockMagic.begin(), kRrrBlockMagic.end(), golden.begin());
  EXPECT_EQ(rrr_block_encode({}, {}), golden);
}

TEST(RrrFrameGolden, SpillSizedBlockDigestIsUnchanged) {
  std::vector<std::uint32_t> lengths;
  std::vector<std::uint32_t> values;
  lcg_batch(lengths, values);
  ASSERT_EQ(values.size(), 12051u);
  const std::vector<std::uint8_t> frame = rrr_block_encode(lengths, values);
  EXPECT_EQ(frame.size(), 25324u);
  EXPECT_EQ(fnv1a(frame), 0x086f3376529a2f76ull);
  const DecodedRrrBlock back = rrr_block_decode(frame);
  EXPECT_EQ(back.lengths, lengths);
  EXPECT_EQ(back.values, values);
}

TEST(RrrFrameHardening, RejectsRetiredHuffmanCodecId) {
  std::vector<std::uint8_t> frame = rrr_block_encode(std::vector<std::uint32_t>{2},
                                                     std::vector<std::uint32_t>{3, 8});
  frame[kCodecAt] = kRrrBlockCodecHuffman;
  expect_io_error(frame, "unknown codec id");
}

TEST(RrrFrameHardening, RejectsADeltaPast32Bits) {
  // One set of one member whose varint decodes to 2^32.
  expect_io_error(make_frame(1, 1, {0x01}, {0x80, 0x80, 0x80, 0x80, 0x10}),
                  "overflows 32 bits");
  // Six bytes whose last one carries bit 35.
  expect_io_error(make_frame(1, 1, {0x01}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}),
                  "overflows 32 bits");
}

TEST(RrrFrameHardening, RejectsARunningValuePast32Bits) {
  // {0xFFFFFFFF, then gap 0}: prev + d + 1 would wrap to 0, handing the
  // selector a non-ascending set.
  expect_io_error(make_frame(1, 2, {0x02}, {0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}),
                  "overflows 32 bits");
}

TEST(RrrFrameHardening, RejectsAValueCountThePayloadCannotHold) {
  // Three members claimed, two value bytes present.
  expect_io_error(make_frame(1, 3, {0x03}, {0x01, 0x02}), "exceed the payload");
  // A count that would have to be allocated before any check could catch it.
  std::vector<std::uint8_t> huge = rrr_block_encode(std::vector<std::uint32_t>{2},
                                                    std::vector<std::uint32_t>{3, 8});
  put_le(huge, kNumValuesAt, std::uint64_t{1} << 61, 8);
  expect_io_error(huge, "exceed the payload");
  put_le(huge, kNumValuesAt, 2, 8);
  put_le(huge, kNumSetsAt, std::uint64_t{1} << 61, 8);
  expect_io_error(huge, "exceed the payload");
}

TEST(RrrFrameHardening, RejectsSectionsThatDisagreeWithTheHeader) {
  expect_io_error(make_frame(1, 2, {0x02}, {0x01, 0x02, 0x03}), "values section");
  expect_io_error(make_frame(1, 2, {0x02, 0x00}, {0x01, 0x02}), "lengths section");
  expect_io_error(make_frame(2, 3, {0x02, 0x02}, {0x01, 0x02, 0x03, 0x04}),
                  "value count");
}

// The first piece of a seeded frame mutator: a fixed budget of bit flips,
// truncations, header rewrites and CRC-resealed payload edits over real
// frames. Resealing is what carries a mutation past the checksum into the
// decoder body; every input must decode to a well-formed batch or throw
// IoError — never crash, over-allocate, or leak another exception type.
TEST(RrrFrameMutation, SeededMutationsDecodeOrThrowIoError) {
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(rrr_block_encode({}, {}));
  seeds.push_back(rrr_block_encode(kSmallLengths, kSmallValues));
  {
    std::vector<std::uint32_t> lengths;
    std::vector<std::uint32_t> values;
    lcg_batch(lengths, values);
    lengths.resize(48);  // keep the sweep fast under sanitizers
    std::size_t total = 0;
    for (const std::uint32_t len : lengths) total += len;
    values.resize(total);
    seeds.push_back(rrr_block_encode(lengths, values));
  }

  support::RandomStream rng(17, 17);
  constexpr int kMutations = 20'000;
  int decoded = 0;
  int past_crc = 0;  // rejected by the decoder body, not the checksum
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::uint8_t> frame =
        seeds[rng.next_below(static_cast<std::uint32_t>(seeds.size()))];
    const auto payload_len = static_cast<std::uint32_t>(frame.size() - kHeaderBytes);
    switch (rng.next_below(5)) {
      case 0: {  // bit flip anywhere, checksum left stale
        frame[rng.next_below(static_cast<std::uint32_t>(frame.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      }
      case 1: {  // truncation
        frame.resize(rng.next_below(static_cast<std::uint32_t>(frame.size())));
        break;
      }
      case 2: {  // header count rewrite
        static constexpr std::size_t kFields[] = {kNumSetsAt, kNumValuesAt,
                                                  kLengthsBytesAt, kPayloadBytesAt};
        std::uint64_t v = 0;
        switch (rng.next_below(4)) {
          case 0: v = rng.next_u64(); break;
          case 1: v = rng.next_below(64); break;
          case 2: v = std::uint64_t{1} << rng.next_below(64); break;
          default: v = payload_len + rng.next_below(3) - 1; break;
        }
        put_le(frame, kFields[rng.next_below(4)], v, 8);
        break;
      }
      case 3: {  // resealed payload bit flips
        if (payload_len == 0) break;
        for (std::uint32_t k = 1 + rng.next_below(3); k > 0; --k) {
          frame[kHeaderBytes + rng.next_below(payload_len)] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        reseal(frame);
        break;
      }
      default: {  // resealed payload byte overwrite, e.g. 0xFF runs
        if (payload_len == 0) break;
        const std::uint32_t at = rng.next_below(payload_len);
        const std::uint32_t run = 1 + rng.next_below(std::min(6u, payload_len - at));
        const auto byte =
            static_cast<std::uint8_t>(rng.next_below(2) == 0 ? 0xFFu : rng.next_u32());
        std::fill_n(frame.begin() + kHeaderBytes + at, run, byte);
        reseal(frame);
        break;
      }
    }
    try {
      const DecodedRrrBlock block = rrr_block_decode(frame);
      ++decoded;
      std::size_t at = 0;
      for (const std::uint32_t len : block.lengths) {
        for (std::uint32_t j = 1; j < len; ++j) {
          ASSERT_LT(block.values[at + j - 1], block.values[at + j]) << "mutation " << m;
        }
        at += len;
      }
      ASSERT_EQ(at, block.values.size()) << "mutation " << m;
    } catch (const IoError& e) {
      if (std::string(e.what()).find("CRC-32C") == std::string::npos) ++past_crc;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << m << " threw a non-IoError: " << e.what();
    }
  }
  // Both outcomes must actually occur, and the decoder body must be the one
  // rejecting a real share of the inputs.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(past_crc, kMutations / 10);
}

}  // namespace
}  // namespace eim::encoding
