// Minimal JSON writer + recursive-descent parser for machine-readable
// tool output.
//
// The writer is streaming, allocation-light, and escapes strings per
// RFC 8259; eim_cli's --json mode pipes straight into analysis scripts.
// The parser builds a JsonValue tree (object members keep their source
// order, so a parsed document round-trips through JsonValue::write
// structurally unchanged) and backs the trace/metrics validation tests
// and tools/bench_diff. It refuses what RFC 8259 refuses, including numbers
// outside its grammar (a leading zero, '+' or bare '.'), numbers that
// overflow a double, and an object that names a key twice.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eim/support/error.hpp"

namespace eim::support {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view key = {});
  JsonWriter& end_array();

  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// Splice pre-serialized JSON verbatim (caller guarantees validity).
  /// Lets one document embed another without re-parsing — e.g. a bench
  /// report embedding a per-cell metrics snapshot.
  JsonWriter& raw_value(std::string_view json);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

 private:
  void separator();
  void escape(std::string_view text);

  std::ostream* out_;
  /// true = a value has been emitted at this nesting level.
  std::vector<bool> has_value_{};
  bool pending_key_ = false;
};

/// A malformed JSON document; carries the byte offset of the failure.
class JsonParseError : public Error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : Error("JSON parse error at offset " + std::to_string(offset) + ": " + what),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Parsed JSON document node. Numbers keep their integer-ness (an integral
/// token that fits int64 stays exact; everything else is a double); object
/// members preserve source order so a parse -> write -> parse trip is
/// structurally the identity.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::String; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }

  /// Typed accessors; EIM_CHECK-fail on kind mismatch (as_double accepts
  /// Int and widens).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// find() + EIM_CHECK that the member exists.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Serialize this tree through the streaming writer (round-trip path).
  void write(JsonWriter& w) const;

  /// Structural equality (object member *order* is ignored; numbers compare
  /// by value across Int/Double).
  [[nodiscard]] bool structurally_equal(const JsonValue& other) const;

  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_int(std::int64_t i);
  static JsonValue make_double(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws JsonParseError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace eim::support
