// Seeded mutation sweep over a real checkpoint (docs/RESILIENCE.md): bit
// flips, truncations, section-table rewrites, and CRC-resealed edits and
// resizes of every section. Resealing carries a mutation past the checksums
// into the section decoders. Every input must load to a well-formed state
// or throw SnapshotCorruptError — never crash, over-allocate, or leak
// another exception type.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/support/crc32.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/rng.hpp"
#include "eim/support/snapshot.hpp"

namespace eim::eim_impl {
namespace {

using support::snapshot::SnapshotCorruptError;
using support::snapshot::SnapshotReader;
using support::snapshot::SnapshotWriter;

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path(::testing::TempDir() + stem + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void put_le(std::string& bytes, std::size_t at, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::string& bytes, std::size_t at, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// Where the fields of an intact snapshot's header sit (snapshot.hpp's
/// layout): the section count, each table entry, and the header checksum.
struct TableLayout {
  static constexpr std::size_t kCountAt = 12;  // after magic(8) + version(4)
  std::vector<std::size_t> entry_at;           // each entry's name-length field
  std::size_t header_crc_at = 0;
};

TableLayout parse_table(const std::string& bytes) {
  TableLayout t;
  const auto count = static_cast<std::uint32_t>(get_le(bytes, TableLayout::kCountAt, 4));
  std::size_t at = TableLayout::kCountAt + 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    t.entry_at.push_back(at);
    at += 4 + get_le(bytes, at, 4) + 8 + 4;
  }
  t.header_crc_at = at;
  return t;
}

void reseal_header(std::string& bytes, const TableLayout& t) {
  put_le(bytes, t.header_crc_at,
         support::crc32c(std::string_view(bytes).substr(0, t.header_crc_at)), 4);
}

using Sections = std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

std::string serialize(const Sections& sections) {
  SnapshotWriter w;
  for (const auto& [name, payload] : sections) w.add_section(name, payload);
  return w.serialize();
}

TEST(CheckpointMutation, SeededMutationsLoadOrThrowSnapshotCorrupt) {
  TempDir dir("eim_ckpt_mutation");
  {
    graph::Graph g = graph::Graph::from_edge_list(graph::barabasi_albert(120, 3, 0.3, 7));
    graph::assign_weights(g, graph::DiffusionModel::IndependentCascade);
    imm::ImmParams params;
    params.k = 3;
    params.epsilon = 0.5;
    support::metrics::MetricsRegistry registry;  // a non-empty metrics section
    gpusim::Device dev(gpusim::make_benchmark_device(256));
    EimOptions options;
    options.checkpoint_dir = dir.path;
    options.metrics = &registry;
    (void)run_eim(dev, g, graph::DiffusionModel::IndependentCascade, params, options);
  }
  const std::string path = dir.path + "/snapshot.bin";
  const std::string original = read_file(path);
  const TableLayout table = parse_table(original);
  Sections sections;
  {
    const SnapshotReader reader(original);
    for (const std::string& name : reader.section_names()) {
      const auto payload = reader.section(name);
      sections.emplace_back(name, std::vector<std::uint8_t>(payload.begin(), payload.end()));
    }
  }
  ASSERT_EQ(sections.size(), 6u);
  ASSERT_EQ(table.entry_at.size(), sections.size());

  support::RandomStream rng(29, 29);
  constexpr int kMutations = 3'000;
  int loaded = 0;
  // Rejections of resealed edits, whose checksums hold by construction: the
  // section decoders refused them.
  std::map<std::string, int> resealed_rejects;
  for (int m = 0; m < kMutations; ++m) {
    std::string bytes = original;
    std::string resealed_section;
    const auto size = static_cast<std::uint32_t>(bytes.size());
    switch (rng.next_below(5)) {
      case 0: {  // bit flip anywhere, checksums left stale
        bytes[rng.next_below(size)] ^= static_cast<char>(1u << rng.next_below(8));
        break;
      }
      case 1: {  // truncation
        bytes.resize(rng.next_below(size));
        break;
      }
      case 2: {  // section-table rewrite behind a resealed header checksum
        const std::size_t entry =
            table.entry_at[rng.next_below(static_cast<std::uint32_t>(table.entry_at.size()))];
        const std::uint64_t name_len = get_le(bytes, entry, 4);
        std::uint64_t v = 0;
        switch (rng.next_below(4)) {
          case 0: v = rng.next_u64(); break;
          case 1: v = rng.next_below(64); break;
          case 2: v = std::uint64_t{1} << rng.next_below(64); break;
          default: v = get_le(bytes, entry + 4 + name_len, 8) + rng.next_below(3) - 1; break;
        }
        switch (rng.next_below(4)) {
          case 0: put_le(bytes, TableLayout::kCountAt, v, 4); break;
          case 1: put_le(bytes, entry, v, 4); break;                  // name length
          case 2: put_le(bytes, entry + 4 + name_len, v, 8); break;   // payload length
          default:                                                    // a name byte
            bytes[entry + 4 + rng.next_below(static_cast<std::uint32_t>(name_len))] ^=
                static_cast<char>(1u << rng.next_below(8));
            break;
        }
        reseal_header(bytes, table);
        break;
      }
      case 3: {  // resealed payload edit: bit flips or a run of one byte
        Sections edited = sections;
        auto& [name, payload] =
            edited[rng.next_below(static_cast<std::uint32_t>(edited.size()))];
        resealed_section = name;
        if (payload.empty()) break;
        const auto len = static_cast<std::uint32_t>(payload.size());
        if (rng.next_below(2) == 0) {
          for (std::uint32_t k = 1 + rng.next_below(3); k > 0; --k) {
            payload[rng.next_below(len)] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
          }
        } else {
          const std::uint32_t at = rng.next_below(len);
          const std::uint32_t run = 1 + rng.next_below(std::min(8u, len - at));
          const auto byte =
              static_cast<std::uint8_t>(rng.next_below(2) == 0 ? 0xFFu : rng.next_u32());
          std::fill_n(payload.begin() + at, run, byte);
        }
        bytes = serialize(edited);
        break;
      }
      default: {  // resealed payload resize: cut short or padded
        Sections edited = sections;
        auto& [name, payload] =
            edited[rng.next_below(static_cast<std::uint32_t>(edited.size()))];
        resealed_section = name;
        if (rng.next_below(2) == 0 && !payload.empty()) {
          payload.resize(rng.next_below(static_cast<std::uint32_t>(payload.size())));
        } else {
          payload.resize(payload.size() + 1 + rng.next_below(9),
                         static_cast<std::uint8_t>(rng.next_u32()));
        }
        bytes = serialize(edited);
        break;
      }
    }
    write_file(path, bytes);
    try {
      const CheckpointState state = load_checkpoint(dir.path);
      ++loaded;
      std::uint64_t total = 0;
      for (const std::uint32_t len : state.lengths) total += len;
      ASSERT_EQ(total, state.elements.size()) << "mutation " << m;
      for (const graph::VertexId v : state.elements) {
        ASSERT_LT(v, state.num_vertices) << "mutation " << m;
      }
      // A loaded state must also resume: its metrics snapshot ("" = none)
      // restores.
      if (!state.metrics_json.empty()) {
        support::metrics::MetricsRegistry scratch;
        ASSERT_NO_THROW(support::metrics::restore_registry_json(scratch, state.metrics_json))
            << "mutation " << m;
      }
    } catch (const SnapshotCorruptError&) {
      if (!resealed_section.empty()) ++resealed_rejects[resealed_section];
    } catch (const std::exception& e) {
      FAIL() << "mutation " << m << " threw a non-SnapshotCorruptError: " << e.what();
    }
  }
  // Both outcomes must occur, a real share of the rejections must come from
  // the decoders behind the checksums, and every section's decoder must
  // have refused at least one resealed edit.
  EXPECT_GT(loaded, 0);
  int past_crc = 0;
  for (const auto& [name, payload] : sections) {
    EXPECT_GT(resealed_rejects[name], 0) << "section '" << name << "'";
    past_crc += resealed_rejects[name];
  }
  EXPECT_GT(past_crc, kMutations / 10);
}

}  // namespace
}  // namespace eim::eim_impl
