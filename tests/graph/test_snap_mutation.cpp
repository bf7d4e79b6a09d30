// Seeded mutation sweep over SNAP edge-list text (graph/io.hpp), the one
// graph format eim_cli reads from disk: bit flips, byte overwrites and
// insertions from the characters the parser treats specially, deletions,
// duplicated spans and truncations. Every input must parse to a well-formed
// edge list or throw IoError — never crash, over-allocate, or leak another
// exception type.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "eim/graph/generators.hpp"
#include "eim/graph/io.hpp"
#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"

namespace eim::graph {
namespace {

TEST(SnapTextMutation, SeededMutationsParseOrThrowIoError) {
  std::vector<std::string> seeds;
  {
    std::ostringstream out;
    save_snap_text(erdos_renyi(40, 120, 3), out, "mutation seed");
    seeds.push_back(out.str());
  }
  // Attribute columns, CRLF endings, '%' comments, sparse 64-bit ids.
  seeds.push_back(
      "% KONECT-style header\r\n"
      "0 1 0.5 1234\r\n"
      "1\t2\t1e-3\r\n"
      "18446744073709551615 7 -2.5\r\n"
      "7 0\n"
      "   \n"
      "# trailing comment\n");

  constexpr std::string_view kSpecial = "#% \t\r\n-+.e0123456789xX\xff";
  support::RandomStream rng(31, 31);
  constexpr int kMutations = 5'000;
  int parsed = 0;
  int rejected = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::string text = seeds[rng.next_below(static_cast<std::uint32_t>(seeds.size()))];
    const auto size = static_cast<std::uint32_t>(text.size());
    const std::uint32_t at = rng.next_below(size);
    const char special = kSpecial[rng.next_below(static_cast<std::uint32_t>(kSpecial.size()))];
    switch (rng.next_below(6)) {
      case 0:  // bit flip
        text[at] ^= static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:  // overwrite with a character the parser treats specially
        text[at] = special;
        break;
      case 2:  // insertion: a special character, a NUL, or an overflowing id
        switch (rng.next_below(3)) {
          case 0: text.insert(at, 1, special); break;
          case 1: text.insert(at, 1, '\0'); break;
          default: text.insert(at, "99999999999999999999999"); break;
        }
        break;
      case 3:  // deletion of a short span
        text.erase(at, 1 + rng.next_below(8));
        break;
      case 4: {  // duplicate a span somewhere else
        const std::string span = text.substr(at, 1 + rng.next_below(24));
        text.insert(rng.next_below(static_cast<std::uint32_t>(text.size())), span);
        break;
      }
      default:  // truncation
        text.resize(at);
        break;
    }
    std::istringstream in(text);
    try {
      const EdgeList edges = load_snap_text(in);
      ++parsed;
      for (const Edge& e : edges.edges()) {
        ASSERT_LT(e.from, edges.num_vertices()) << "mutation " << m;
        ASSERT_LT(e.to, edges.num_vertices()) << "mutation " << m;
      }
    } catch (const support::IoError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << m << " threw a non-IoError: " << e.what();
    }
  }
  // Both outcomes must occur in real numbers.
  EXPECT_GT(parsed, kMutations / 10);
  EXPECT_GT(rejected, kMutations / 10);
}

}  // namespace
}  // namespace eim::graph
