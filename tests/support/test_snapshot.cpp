#include "eim/support/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "eim/support/crc32.hpp"

namespace eim::support::snapshot {
namespace {

std::vector<std::uint8_t> payload_a() {
  ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-2.5);
  w.str("hello");
  const std::vector<std::uint32_t> arr = {1, 2, 3, 500};
  w.u32_array<std::uint32_t>(arr);
  return w.take();
}

SnapshotWriter two_section_writer() {
  SnapshotWriter w;
  w.add_section("alpha", payload_a());
  w.add_section("beta", {0x42});
  return w;
}

TEST(ByteCodec, RoundTripsEveryPrimitive) {
  const std::vector<std::uint8_t> bytes = payload_a();
  ByteReader r(bytes, "test");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.u32_array<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3, 500}));
  EXPECT_EQ(r.remaining(), 0u);
  r.expect_exhausted();
}

TEST(ByteCodec, ArrayFromPartsEqualsArrayFromOneSpan) {
  const std::vector<std::uint32_t> values = {0, 1, 0xFFFFFFFFu, 7, 0x01020304u, 500, 9};
  ByteWriter whole;
  whole.u8(3);
  whole.u32_array(std::span<const std::uint32_t>(values));
  const std::span<const std::uint32_t> all(values);
  const std::vector<std::span<const std::uint32_t>> parts = {
      all.first(2), all.subspan(2, 0), all.subspan(2, 4), all.subspan(6)};
  ByteWriter split;
  split.u8(3);
  split.u32_array(std::span<const std::span<const std::uint32_t>>(parts));
  EXPECT_EQ(split.bytes(), whole.bytes());
  ByteReader r(split.bytes(), "parts");
  EXPECT_EQ(r.u8(), 3u);
  EXPECT_EQ(r.u32_array<std::uint32_t>(), values);
  r.expect_exhausted();

  ByteWriter none;
  none.u32_array(std::span<const std::span<const std::uint32_t>>());
  ByteWriter empty;
  empty.u32_array(std::span<const std::uint32_t>());
  EXPECT_EQ(none.bytes(), empty.bytes());
}

TEST(ByteCodec, ReadPastEndThrowsNotReadsGarbage) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  ByteReader r(bytes, "short");
  EXPECT_THROW((void)r.u32(), SnapshotCorruptError);
}

TEST(ByteCodec, ArrayLengthPrefixGuardedBeforeAllocation) {
  // A corrupted length prefix claiming 2^61 entries must be rejected by the
  // remaining-bytes bound, not attempted as a 16-exabyte reserve.
  ByteWriter w;
  w.u64(std::uint64_t{1} << 61);
  const auto bytes = w.take();
  ByteReader r(bytes, "huge");
  EXPECT_THROW((void)r.u32_array<std::uint32_t>(), SnapshotCorruptError);
}

TEST(ByteCodec, TrailingBytesDetected) {
  ByteWriter w;
  w.u32(1);
  w.u8(9);  // one extra byte the reader does not consume
  const auto bytes = w.take();
  ByteReader r(bytes, "extra");
  (void)r.u32();
  EXPECT_THROW(r.expect_exhausted(), SnapshotCorruptError);
}

TEST(Snapshot, SerializeParseRoundTrip) {
  const std::string blob = two_section_writer().serialize();
  const SnapshotReader r{blob};

  EXPECT_TRUE(r.has_section("alpha"));
  EXPECT_TRUE(r.has_section("beta"));
  EXPECT_FALSE(r.has_section("gamma"));
  EXPECT_EQ(r.section_names(), (std::vector<std::string>{"alpha", "beta"}));

  ByteReader alpha = r.reader("alpha");
  EXPECT_EQ(alpha.u8(), 7u);
  EXPECT_EQ(alpha.u32(), 0xDEADBEEFu);

  const auto beta = r.section("beta");
  ASSERT_EQ(beta.size(), 1u);
  EXPECT_EQ(beta[0], 0x42);
}

TEST(Snapshot, MissingSectionIsStructuralDefect) {
  const SnapshotReader r{two_section_writer().serialize()};
  EXPECT_THROW((void)r.section("gamma"), SnapshotCorruptError);
  EXPECT_THROW((void)r.reader("gamma"), SnapshotCorruptError);
}

TEST(Snapshot, DuplicateSectionNameRejectedAtWrite) {
  SnapshotWriter w;
  w.add_section("dup", {1});
  EXPECT_THROW(w.add_section("dup", {2}), support::Error);
}

TEST(Snapshot, EmptySnapshotAndEmptyPayloadAreValid) {
  const SnapshotReader empty{SnapshotWriter{}.serialize()};
  EXPECT_TRUE(empty.section_names().empty());

  SnapshotWriter w;
  w.add_section("zero", {});
  const SnapshotReader r{w.serialize()};
  EXPECT_EQ(r.section("zero").size(), 0u);
  r.reader("zero").expect_exhausted();
}

TEST(Snapshot, BadMagicRejected) {
  std::string blob = two_section_writer().serialize();
  blob[0] = 'X';
  EXPECT_THROW(SnapshotReader{blob}, SnapshotCorruptError);
}

TEST(Snapshot, UnknownVersionRejected) {
  std::string blob = two_section_writer().serialize();
  blob[8] = 99;  // version field follows the 8-byte magic, little-endian
  EXPECT_THROW(SnapshotReader{blob}, SnapshotCorruptError);
}

TEST(Snapshot, EveryTruncationLengthRejected) {
  // The headline robustness property: a snapshot cut at ANY byte boundary —
  // mid-magic, mid-table, mid-payload — loads as SnapshotCorruptError, never
  // as a crash or a silently partial decode.
  const std::string blob = two_section_writer().serialize();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(SnapshotReader{blob.substr(0, len)}, SnapshotCorruptError)
        << "truncation to " << len << " of " << blob.size() << " bytes";
  }
  EXPECT_NO_THROW(SnapshotReader{blob});
}

TEST(Snapshot, EveryByteFlipRejected) {
  // Companion sweep: flipping any single byte lands in the header (header
  // CRC), the table (header CRC), or a payload (its section CRC) — all
  // checksummed, so every flip must be detected.
  const std::string blob = two_section_writer().serialize();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    EXPECT_THROW(SnapshotReader{bad}, SnapshotCorruptError) << "flip at byte " << i;
  }
}

TEST(Snapshot, HugeSectionCountRejectedBeforeAllocation) {
  // The section count (bytes 12-15, after magic and version) is read before
  // the header checksum can be verified; a corrupt count must fail the
  // remaining-bytes bound, not reserve a ~200 GB table and throw bad_alloc.
  std::string blob = two_section_writer().serialize();
  for (std::size_t i = 12; i < 16; ++i) blob[i] = static_cast<char>(0xFF);
  EXPECT_THROW(SnapshotReader{blob}, SnapshotCorruptError);
}

TEST(Snapshot, WrappingPayloadLengthRejected) {
  // Payload lengths come from the file. One that wraps the running offset
  // back to an earlier payload must fail the bounds check, or its section
  // would be handed out as a span reaching far past the file's bytes. Here
  // "a" covers the payload's first 4 bytes, "b" claims 2^64 - 4 bytes (the
  // offset wraps back to the payload start), and "c" covers the whole
  // payload, so the offsets end exactly at the end and every CRC holds.
  const std::string payload = "0123456789";
  std::string blob(kMagic);
  const auto put = [&blob](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) blob.push_back(static_cast<char>(v >> (8 * i)));
  };
  put(kFormatVersion, 4);
  put(3, 4);
  const std::string_view view(payload);
  const struct {
    const char* name;
    std::uint64_t length;
    std::string_view covered;
  } table[] = {{"a", 4, view.substr(0, 4)},
               {"b", ~std::uint64_t{0} - 3, view.substr(4)},
               {"c", payload.size(), view}};
  for (const auto& entry : table) {
    put(1, 4);
    blob += entry.name;
    put(entry.length, 8);
    put(crc32c(entry.covered), 4);
  }
  put(crc32c(blob), 4);
  blob += payload;
  EXPECT_THROW(SnapshotReader{blob}, SnapshotCorruptError);
}

TEST(Snapshot, TrailingGarbageRejected) {
  std::string blob = two_section_writer().serialize();
  blob += "junk";
  EXPECT_THROW(SnapshotReader{blob}, SnapshotCorruptError);
}

TEST(Snapshot, FileRoundTripAndMissingFileIsPlainIoError) {
  const std::string path =
      ::testing::TempDir() + "eim_snapshot_roundtrip_" + std::to_string(::getpid()) + ".bin";
  two_section_writer().write_file(path);
  const SnapshotReader r = SnapshotReader::load_file(path);
  EXPECT_TRUE(r.has_section("alpha"));
  std::remove(path.c_str());

  // "No snapshot yet" must stay distinguishable from "snapshot damaged".
  try {
    (void)SnapshotReader::load_file(path);
    FAIL() << "expected IoError";
  } catch (const SnapshotCorruptError&) {
    FAIL() << "missing file must not classify as corruption";
  } catch (const IoError&) {
  }
}

TEST(Crc32, KnownVectorsAndIncrementalChaining) {
  // CRC-32C ("123456789") = 0xE3069283 — the standard check value for the
  // Castagnoli polynomial.
  EXPECT_EQ(crc32c(std::string_view{"123456789"}), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string_view{""}), 0u);
  const std::uint32_t prefix = crc32c(std::string_view{"12345"});
  EXPECT_EQ(crc32c(std::string_view{"6789"}, prefix), 0xE3069283u);
}

}  // namespace
}  // namespace eim::support::snapshot
