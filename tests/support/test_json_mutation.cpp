// Seeded mutation sweep over parse_json (support/json.hpp), which reads a
// checkpoint's metrics section and every bench envelope from disk: bit
// flips, overwrites and insertions from the characters the parser treats
// specially, deletions, duplicated spans and truncations. Every input must
// parse to a document whose written form parses back, or throw
// JsonParseError with an offset inside the input — never crash, recurse
// past the depth cap, over-allocate, or leak another exception type.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "eim/support/json.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/rng.hpp"

namespace eim::support {
namespace {

std::string write_value(const JsonValue& v) {
  std::ostringstream out;
  JsonWriter w(out);
  v.write(w);
  return out.str();
}

TEST(JsonMutation, SeededMutationsParseOrThrowJsonParseError) {
  std::vector<std::string> seeds;
  {
    // A metrics snapshot as a checkpoint stores it.
    metrics::MetricsRegistry registry;
    registry.counter("rrr.commit_rejects").add(168);
    registry.counter("sampler.waves").add(3);
    registry.gauge("device.peak_bytes").set(5492624);
    for (const std::uint64_t v : {1u, 7u, 130u, 4096u}) {
      registry.histogram("rrr.set_size").observe(v);
    }
    std::ostringstream out;
    JsonWriter w(out);
    registry.write_json(w);
    seeds.push_back(out.str());
  }
  // Escapes, a surrogate pair, every literal, exponents, int64 edges, nesting.
  seeds.push_back(
      R"({"s":"a\"b\\c\/d\b\f\n\r\té😀","t":true,"f":false,"n":null,)"
      R"("x":[-0,1.5e-3,-2E+8,9223372036854775807,-9223372036854775808,[[[{}]]]]})");
  seeds.push_back(R"([{"id":"cell-0","seconds":0.0217,"counters":{"a":1,"b":2}},[],""])");

  constexpr std::string_view kSpecial =
      "{}[]\":,\\/-+.eE0123456789tfnu \t\r\n\x01\x7f\xff";
  RandomStream rng(37, 37);
  constexpr int kMutations = 20'000;
  int parsed = 0;
  int rejected = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::string text = seeds[rng.next_below(static_cast<std::uint32_t>(seeds.size()))];
    const auto size = static_cast<std::uint32_t>(text.size());
    const std::uint32_t at = rng.next_below(size);
    const char special =
        kSpecial[rng.next_below(static_cast<std::uint32_t>(kSpecial.size()))];
    switch (rng.next_below(6)) {
      case 0:  // bit flip
        text[at] ^= static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:  // overwrite with a character the parser treats specially
        text[at] = special;
        break;
      case 2:  // insertion: a special character, a NUL, a huge number, deep nesting
        switch (rng.next_below(4)) {
          case 0: text.insert(at, 1, special); break;
          case 1: text.insert(at, 1, '\0'); break;
          case 2: text.insert(at, "99999999999999999999999e99999"); break;
          default: text.insert(at, std::string(1 + rng.next_below(200), '[')); break;
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
    try {
      const JsonValue doc = parse_json(text);
      ++parsed;
      // What the writer makes of an accepted document parses back, and the
      // trip after that changes no byte (the first one turns non-finite
      // numbers into null and a double -0 into the integer 0).
      const std::string written = write_value(doc);
      JsonValue again;
      ASSERT_NO_THROW(again = parse_json(written)) << "mutation " << m << ": " << written;
      const std::string rewritten = write_value(again);
      ASSERT_EQ(write_value(parse_json(rewritten)), rewritten) << "mutation " << m;
    } catch (const JsonParseError& e) {
      ++rejected;
      ASSERT_LE(e.offset(), text.size()) << "mutation " << m;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << m << " threw a non-JsonParseError: " << e.what();
    }
  }
  // Both outcomes must occur in real numbers.
  EXPECT_GT(parsed, kMutations / 20);
  EXPECT_GT(rejected, kMutations / 10);
}

}  // namespace
}  // namespace eim::support
