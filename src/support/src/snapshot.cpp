#include "eim/support/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "eim/support/atomic_write.hpp"
#include "eim/support/crc32.hpp"

namespace eim::support::snapshot {

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// Header-side cursor with its own truncation reporting (the payload
/// ByteReader reports against a section name; here we are still parsing the
/// table itself).
class HeaderCursor {
 public:
  explicit HeaderCursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::string_view take(std::size_t n, const char* what) {
    if (pos_ + n > bytes_.size()) {
      throw SnapshotCorruptError(std::string("truncated header while reading ") + what);
    }
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] std::uint32_t u32(const char* what) {
    const std::string_view b = take(4, what);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[i])) << (8 * i);
    }
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    const std::string_view b = take(8, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b[i])) << (8 * i);
    }
    return v;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

void SnapshotWriter::add_section(std::string name, std::vector<std::uint8_t> payload) {
  EIM_CHECK_MSG(!name.empty(), "snapshot section needs a name");
  EIM_CHECK_MSG(std::none_of(sections_.begin(), sections_.end(),
                             [&](const Section& s) { return s.name == name; }),
                "duplicate snapshot section '" + name + "'");
  sections_.push_back(Section{std::move(name), std::move(payload)});
}

std::string SnapshotWriter::serialize() const {
  std::size_t size = kMagic.size() + 4 + 4 + 4;  // magic, version, count, header CRC
  for (const Section& s : sections_) size += 4 + s.name.size() + 8 + 4 + s.payload.size();
  std::string out;
  out.reserve(size);
  out.append(kMagic);
  append_u32(out, kFormatVersion);
  append_u32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    append_u32(out, static_cast<std::uint32_t>(s.name.size()));
    out.append(s.name);
    append_u64(out, s.payload.size());
    append_u32(out, crc32c(std::span<const std::uint8_t>(s.payload)));
  }
  append_u32(out, crc32c(out));
  for (const Section& s : sections_) {
    out.append(reinterpret_cast<const char*>(s.payload.data()), s.payload.size());
  }
  return out;
}

void SnapshotWriter::write_file(const std::string& path) const {
  atomic_write_file(path, serialize());
}

SnapshotReader::SnapshotReader(std::string bytes) : bytes_(std::move(bytes)) {
  HeaderCursor cur(bytes_);
  if (cur.take(kMagic.size(), "magic") != kMagic) {
    throw SnapshotCorruptError("bad magic (not an eIM snapshot)");
  }
  const std::uint32_t version = cur.u32("version");
  if (version != kFormatVersion) {
    throw SnapshotCorruptError("unsupported format version " + std::to_string(version) +
                               " (expected " + std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = cur.u32("section count");
  // Bound the count before reserving: a table entry takes at least 16
  // bytes (name length, payload length, checksum), so a corrupt count must
  // fail here, not as a multi-GB allocation.
  constexpr std::size_t kMinTableEntry = 4 + 8 + 4;
  if (count > (bytes_.size() - cur.pos()) / kMinTableEntry) {
    throw SnapshotCorruptError("section count " + std::to_string(count) +
                               " exceeds what the remaining " +
                               std::to_string(bytes_.size() - cur.pos()) +
                               " bytes can hold");
  }

  struct Pending {
    std::string name;
    std::size_t length;
    std::uint32_t crc;
  };
  std::vector<Pending> pending;
  pending.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = cur.u32("section name length");
    const std::string_view name = cur.take(name_len, "section name");
    const std::uint64_t payload_len = cur.u64("section payload length");
    const std::uint32_t crc = cur.u32("section checksum");
    pending.push_back(Pending{std::string(name),
                              static_cast<std::size_t>(payload_len), crc});
  }
  const std::size_t table_end = cur.pos();
  const std::uint32_t header_crc = cur.u32("header checksum");
  if (crc32c(std::string_view(bytes_).substr(0, table_end)) != header_crc) {
    throw SnapshotCorruptError("header checksum mismatch (section table damaged)");
  }

  std::size_t offset = cur.pos();
  for (const Pending& p : pending) {
    if (p.length > bytes_.size() - offset) {
      throw SnapshotCorruptError("section '" + p.name + "' truncated (wanted " +
                                 std::to_string(p.length) + " bytes at offset " +
                                 std::to_string(offset) + ", file has " +
                                 std::to_string(bytes_.size()) + ")");
    }
    const std::string_view payload = std::string_view(bytes_).substr(offset, p.length);
    if (crc32c(as_bytes(payload)) != p.crc) {
      throw SnapshotCorruptError("section '" + p.name + "' checksum mismatch");
    }
    entries_.push_back(Entry{p.name, offset, p.length});
    offset += p.length;
  }
  if (offset != bytes_.size()) {
    throw SnapshotCorruptError(std::to_string(bytes_.size() - offset) +
                               " trailing bytes after the last section");
  }
}

SnapshotReader SnapshotReader::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open snapshot '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw IoError("cannot read snapshot '" + path + "'");
  return SnapshotReader(buffer.str());
}

bool SnapshotReader::has_section(std::string_view name) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::span<const std::uint8_t> SnapshotReader::section(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return {reinterpret_cast<const std::uint8_t*>(bytes_.data()) + e.offset, e.length};
    }
  }
  throw SnapshotCorruptError("required section '" + std::string(name) + "' missing");
}

ByteReader SnapshotReader::reader(std::string_view name) const {
  return ByteReader(section(name), "section '" + std::string(name) + "'");
}

std::vector<std::string> SnapshotReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

}  // namespace eim::support::snapshot
