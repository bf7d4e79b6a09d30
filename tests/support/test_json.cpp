#include "eim/support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace eim::support {
namespace {

std::string render(const std::function<void(JsonWriter&)>& body) {
  std::ostringstream os;
  JsonWriter w(os);
  body(w);
  return os.str();
}

TEST(Json, EmptyObject) {
  EXPECT_EQ(render([](JsonWriter& w) { w.begin_object().end_object(); }), "{}");
}

TEST(Json, SimpleFields) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_object()
        .field("name", "eim")
        .field("k", std::uint64_t{50})
        .field("eps", 0.05)
        .field("oom", false)
        .end_object();
  });
  EXPECT_EQ(out, "{\"name\":\"eim\",\"k\":50,\"eps\":0.05,\"oom\":false}");
}

TEST(Json, NestedStructures) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_object();
    w.begin_array("seeds");
    w.value(std::uint64_t{1}).value(std::uint64_t{2});
    w.end_array();
    w.key("meta").begin_object().field("ok", true).end_object();
    w.end_object();
  });
  EXPECT_EQ(out, "{\"seeds\":[1,2],\"meta\":{\"ok\":true}}");
}

TEST(Json, ArrayOfObjects) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_array();
    w.begin_object().field("a", std::uint64_t{1}).end_object();
    w.begin_object().field("a", std::uint64_t{2}).end_object();
    w.end_array();
  });
  EXPECT_EQ(out, "[{\"a\":1},{\"a\":2}]");
}

TEST(Json, EscapesStrings) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_object().field("s", "a\"b\\c\nd\te").end_object();
  });
  EXPECT_EQ(out, "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharactersEscapedAsUnicode) {
  const std::string out =
      render([](JsonWriter& w) { w.begin_object().field("s", "\x01").end_object(); });
  EXPECT_EQ(out, "{\"s\":\"\\u0001\"}");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_array().value(std::nan("")).value(1.5).end_array();
  });
  EXPECT_EQ(out, "[null,1.5]");
}

TEST(Json, NullValue) {
  EXPECT_EQ(render([](JsonWriter& w) { w.begin_array().null().end_array(); }), "[null]");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("-42").as_int(), -42);
  EXPECT_EQ(parse_json("-42").kind(), JsonValue::Kind::Int);
  EXPECT_DOUBLE_EQ(parse_json("2.5e-3").as_double(), 0.0025);
  EXPECT_EQ(parse_json("2.5e-3").kind(), JsonValue::Kind::Double);
  // as_double widens integers, so numeric consumers need one accessor only.
  EXPECT_DOUBLE_EQ(parse_json("7").as_double(), 7.0);
  EXPECT_EQ(parse_json("\"a\\\"b\\nc\\u0041\"").as_string(), "a\"b\ncA");
}

TEST(JsonParse, ObjectsKeepSourceOrderAndSupportLookup) {
  const JsonValue doc = parse_json(R"({"z":1,"a":{"inner":[1,2,3]},"b":null})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.at("z").as_int(), 1);
  EXPECT_EQ(doc.at("a").at("inner").items().size(), 3u);
  EXPECT_TRUE(doc.at("b").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, WhitespaceAndNesting) {
  const JsonValue doc = parse_json(" [ { \"k\" : [ ] } ,\t-0.5 ,\n\"s\" ] ");
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.items().size(), 3u);
  EXPECT_TRUE(doc.items()[0].at("k").items().empty());
  EXPECT_DOUBLE_EQ(doc.items()[1].as_double(), -0.5);
  EXPECT_EQ(doc.items()[2].as_string(), "s");
}

TEST(JsonParse, MalformedInputThrowsWithOffset) {
  EXPECT_THROW((void)parse_json(""), JsonParseError);
  EXPECT_THROW((void)parse_json("{"), JsonParseError);
  EXPECT_THROW((void)parse_json("[1,]"), JsonParseError);
  EXPECT_THROW((void)parse_json("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW((void)parse_json("\"unterminated"), JsonParseError);
  try {
    (void)parse_json("[1, oops]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);  // points at the bad token, not the start
  }
}

// ---------------------------------------------------------------------------
// Hardening corpus: every entry must raise JsonParseError (with a sane
// offset), never crash, hang, or decode to a value — checkpoint manifests and
// bench envelopes are parsed from disk, so damaged bytes reach this code.
// Run under ASan/UBSan by scripts/run_checks.sh.
// ---------------------------------------------------------------------------

struct MalformedCase {
  const char* label;
  std::string input;
};

class JsonParseMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(JsonParseMalformed, ThrowsParseErrorWithInRangeOffset) {
  const MalformedCase& c = GetParam();
  try {
    (void)parse_json(c.input);
    FAIL() << c.label << ": expected JsonParseError";
  } catch (const JsonParseError& e) {
    // The offset must point into (or just past) the document so error
    // messages can show the damaged region.
    EXPECT_LE(e.offset(), c.input.size()) << c.label;
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos) << c.label;
  }
}

std::vector<MalformedCase> malformed_corpus() {
  std::vector<MalformedCase> cases = {
      {"empty", ""},
      {"whitespace_only", " \t\n "},
      {"lone_open_brace", "{"},
      {"lone_open_bracket", "["},
      {"lone_close_brace", "}"},
      {"unclosed_nested", "{\"a\":[1,{\"b\":"},
      {"trailing_comma_array", "[1,]"},
      {"trailing_comma_object", "{\"a\":1,}"},
      {"missing_colon", "{\"a\" 1}"},
      {"missing_comma", "[1 2]"},
      {"unquoted_key", "{a:1}"},
      {"single_quotes", "{'a':1}"},
      {"bare_word", "oops"},
      {"truncated_true", "tru"},
      {"truncated_null", "nul"},
      {"capitalized_literal", "True"},
      {"unterminated_string", "\"abc"},
      {"string_truncated_mid_escape", "\"ab\\"},
      {"bad_escape", "\"\\x41\""},
      {"truncated_unicode_escape", "\"\\u00\""},
      {"invalid_unicode_hex", "\"\\u00zz\""},
      {"raw_control_char_in_string", std::string("\"a\x01b\"", 5)},
      {"lone_minus", "-"},
      {"double_minus", "--1"},
      {"exponent_no_digits", "1e"},
      {"exponent_sign_only", "1e+"},
      {"hex_number", "0x10"},
      {"two_documents", "{} {}"},
      {"trailing_garbage", "[1,2] x"},
      {"comma_before_value", "[,1]"},
      {"colon_in_array", "[\"a\":1]"},
      {"nul_byte_document", std::string("\0", 1)},
      {"nul_byte_after_value", std::string("1\0", 2)},
      {"mismatched_closers", "[{]}"},
  };
  // Truncation sweep over a representative document: every proper prefix
  // that is not itself valid JSON must fail cleanly. (Prefixes that ARE
  // valid — e.g. "1" of "12" — cannot occur here: the document starts with
  // an object so no proper prefix parses.)
  const std::string doc = R"({"k":[1,-2.5e3,"s\n"],"m":{"x":null,"y":true}})";
  for (std::size_t len = 1; len < doc.size(); ++len) {
    cases.push_back({"prefix", doc.substr(0, len)});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, JsonParseMalformed,
                         ::testing::ValuesIn(malformed_corpus()));

TEST(JsonParse, NestingBeyondDepthLimitRejectedNotStackOverflow) {
  // The recursive-descent parser caps depth; 100k open brackets must be a
  // parse error, not a stack overflow (the classic untrusted-JSON DoS).
  const std::string deep_array(100000, '[');
  EXPECT_THROW((void)parse_json(deep_array), JsonParseError);

  std::string deep_object;
  for (int i = 0; i < 5000; ++i) deep_object += "{\"a\":";
  EXPECT_THROW((void)parse_json(deep_object), JsonParseError);
}

TEST(JsonParse, DepthJustUnderTheLimitParses) {
  // 64 nested arrays is comfortably inside the 128-level cap: realistic
  // documents must not be rejected by the DoS guard.
  std::string doc(64, '[');
  doc += "1";
  doc.append(64, ']');
  const JsonValue v = parse_json(doc);
  EXPECT_TRUE(v.is_array());
}

TEST(JsonParse, HugeLengthClaimsDoNotPreallocate) {
  // A document that *claims* many elements but truncates must fail by
  // parsing, not by attempting a giant allocation.
  std::string doc = "[";
  for (int i = 0; i < 1000; ++i) doc += "9999999999999999999999,";  // overflowing ints
  EXPECT_THROW((void)parse_json(doc), JsonParseError);
}

TEST(JsonParse, WriterOutputRoundTrips) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_object()
        .field("name", "eim")
        .field("k", std::uint64_t{50})
        .field("eps", 0.05)
        .field("oom", false);
    w.begin_array("seeds");
    w.value(std::uint64_t{1}).value(std::uint64_t{2});
    w.end_array();
    w.end_object();
  });
  const JsonValue doc = parse_json(out);
  EXPECT_EQ(doc.at("name").as_string(), "eim");
  EXPECT_EQ(doc.at("k").as_int(), 50);
  EXPECT_FALSE(doc.at("oom").as_bool());
  EXPECT_EQ(doc.at("seeds").items().size(), 2u);
  // A parse -> write -> parse trip is lossless because members keep order.
  std::ostringstream os;
  JsonWriter w2(os);
  doc.write(w2);
  EXPECT_TRUE(parse_json(os.str()).structurally_equal(doc));
}

// The parser refuses what JSON refuses, with its usual error: a leading
// zero or '+', a bare '.', a finite token that overflows a double (it would
// come back as inf, which the writer turns into null), and an object that
// names a key twice (lookup could never reach the repeat, and the object
// would not compare equal to itself).
TEST(JsonParse, RefusesNumbersAndKeysJsonRefuses) {
  for (const char* bad : {"[0123]", "[-01]", "[00]", "[+1]", "[.5]", "[1.]", "[1.e3]",
                          "[-.5]", "[1e99999]", "[-1e99999]", "[1.5e400]",
                          "{\"a\":1,\"a\":2}", "{\"a\":1,\"b\":{},\"a\":1}",
                          "[{\"x\":{\"y\":1,\"y\":1}}]"}) {
    EXPECT_THROW((void)parse_json(bad), JsonParseError) << bad;
  }
  EXPECT_EQ(parse_json("[0]").items()[0].as_int(), 0);
  EXPECT_EQ(parse_json("[-0]").items()[0].as_int(), 0);
  EXPECT_DOUBLE_EQ(parse_json("[0.5]").items()[0].as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parse_json("[10e2]").items()[0].as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("[1E+2]").items()[0].as_double(), 100.0);
  // Underflow is representable (as 0 or a subnormal), so it parses.
  EXPECT_EQ(parse_json("[1e-99999]").items()[0].as_double(), 0.0);
  // A key may repeat across objects, only not within one.
  const JsonValue doc = parse_json("{\"a\":{\"a\":1},\"b\":[{\"a\":2},{\"a\":3}]}");
  EXPECT_TRUE(doc.structurally_equal(doc));
}

TEST(JsonParse, StructuralEqualityComparesNumbersByValue) {
  EXPECT_TRUE(parse_json("{\"a\":[1,2]}").structurally_equal(parse_json("{\"a\":[1,2]}")));
  EXPECT_FALSE(parse_json("{\"a\":[1,2]}").structurally_equal(parse_json("{\"a\":[2,1]}")));
  // Int vs Double with the same value is equal — re-serialization may widen.
  EXPECT_TRUE(parse_json("1").structurally_equal(parse_json("1.0")));
  EXPECT_FALSE(parse_json("1").structurally_equal(parse_json("2")));
}

}  // namespace
}  // namespace eim::support
