// Versioned, checksummed binary snapshot container.
//
// The on-disk format behind checkpoint/resume (docs/RESILIENCE.md): a
// snapshot is a flat file of named sections, each independently CRC-32C
// checksummed, behind a magic + version header whose section table carries
// its own checksum. Layout (all integers little-endian, fixed width):
//
//   magic   8 bytes  "EIMSNAP1"
//   u32     format version (kFormatVersion)
//   u32     section count
//   per section:
//     u32   name length, then the name bytes (UTF-8, no NUL)
//     u64   payload length in bytes
//     u32   CRC-32C of the payload
//   u32     CRC-32C of every byte above (magic through the table)
//   payloads, concatenated in section order
//
// Every malformed condition — wrong magic, unknown version, truncated
// table, truncated payload, checksum mismatch, trailing garbage — is
// detected on load and reported as SnapshotCorruptError (an IoError, so
// tools exit with the I/O code 3), never a crash or a silently wrong
// decode. ByteWriter/ByteReader are the bounds-checked primitives section
// payloads are encoded with.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eim/support/error.hpp"

namespace eim::support::snapshot {

inline constexpr std::string_view kMagic = "EIMSNAP1";
inline constexpr std::uint32_t kFormatVersion = 1;

/// A snapshot failed validation: bad magic/version, truncation, checksum
/// mismatch, or a malformed section payload. Derives IoError so
/// exit_code_for maps it to the I/O exit code (3).
class SnapshotCorruptError : public IoError {
 public:
  explicit SnapshotCorruptError(const std::string& what)
      : IoError("corrupt snapshot: " + what) {}
};

/// Little-endian append-only encoder for section payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  template <typename T>
  void u32_array(std::span<const T> values) {
    u32_array(std::span<const std::span<const T>>(&values, 1));
  }
  /// One array written from consecutive parts: the same bytes as u32_array
  /// over their concatenation. The payload grows once, to its exact size.
  template <typename T>
  void u32_array(std::span<const std::span<const T>> parts) {
    std::uint64_t count = 0;
    for (const std::span<const T> part : parts) count += part.size();
    u64(count);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + 4 * static_cast<std::size_t>(count));
    std::uint8_t* out = bytes_.data() + at;
    for (const std::span<const T> part : parts) {
      for (const T value : part) {
        const auto v = static_cast<std::uint32_t>(value);
        for (int i = 0; i < 4; ++i) *out++ = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder; any read past the payload end throws
/// SnapshotCorruptError instead of reading garbage.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint32_t len = u32();
    const auto b = take(len);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  template <typename T>
  [[nodiscard]] std::vector<T> u32_array() {
    const std::uint64_t count = u64();
    // Guard length-prefix corruption before allocating: the array cannot
    // hold more entries than payload bytes remain.
    if (count > remaining() / 4) {
      throw SnapshotCorruptError(context_ + ": array length " + std::to_string(count) +
                                 " exceeds remaining payload");
    }
    std::vector<T> values;
    values.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) values.push_back(static_cast<T>(u32()));
    return values;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// Sections must be consumed exactly; leftover bytes mean the reader and
  /// writer disagree about the schema.
  void expect_exhausted() const {
    if (remaining() != 0) {
      throw SnapshotCorruptError(context_ + ": " + std::to_string(remaining()) +
                                 " trailing bytes after decode");
    }
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) {
      throw SnapshotCorruptError(context_ + ": truncated payload (wanted " +
                                 std::to_string(n) + " bytes, " +
                                 std::to_string(remaining()) + " left)");
    }
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::string context_;
};

class SnapshotWriter {
 public:
  /// Append a named section. Names must be unique; section order is
  /// preserved in the file.
  void add_section(std::string name, std::vector<std::uint8_t> payload);

  /// Serialize header + table + payloads to one byte string.
  [[nodiscard]] std::string serialize() const;

  /// serialize() + support::atomic_write_file: the destination either keeps
  /// its previous snapshot or atomically becomes this one.
  void write_file(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

class SnapshotReader {
 public:
  /// Parse and fully validate (header, table, every payload checksum).
  /// Throws SnapshotCorruptError on any mismatch.
  explicit SnapshotReader(std::string bytes);

  /// Read + validate a snapshot file. Missing/unreadable file throws plain
  /// IoError ("no snapshot" is distinct from "corrupt snapshot").
  [[nodiscard]] static SnapshotReader load_file(const std::string& path);

  [[nodiscard]] bool has_section(std::string_view name) const noexcept;
  /// Checksummed payload bytes; throws SnapshotCorruptError when absent
  /// (a missing required section is a structural defect).
  [[nodiscard]] std::span<const std::uint8_t> section(std::string_view name) const;
  /// Bounds-checked reader over section(name).
  [[nodiscard]] ByteReader reader(std::string_view name) const;

  [[nodiscard]] std::vector<std::string> section_names() const;

 private:
  struct Entry {
    std::string name;
    std::size_t offset;
    std::size_t length;
  };
  std::string bytes_;
  std::vector<Entry> entries_;
};

}  // namespace eim::support::snapshot
