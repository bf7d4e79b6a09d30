#include "eim/support/json.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <utility>

#include "eim/support/error.hpp"

namespace eim::support {

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // "key": value — no comma between key and its value
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) *out_ << ',';
    has_value_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  *out_ << '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  EIM_CHECK_MSG(!has_value_.empty(), "end_object without begin");
  has_value_.pop_back();
  *out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view name) {
  if (!name.empty()) key(name);
  separator();
  *out_ << '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  EIM_CHECK_MSG(!has_value_.empty(), "end_array without begin");
  has_value_.pop_back();
  *out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separator();
  *out_ << '"';
  escape(name);
  *out_ << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separator();
  *out_ << '"';
  escape(text);
  *out_ << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separator();
  if (std::isfinite(number)) {
    *out_ << std::setprecision(15) << number;
  } else {
    *out_ << "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separator();
  *out_ << number;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separator();
  *out_ << number;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separator();
  *out_ << (flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  separator();
  *out_ << "null";
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  separator();
  *out_ << json;
  return *this;
}

// ---- JsonValue -----------------------------------------------------------

bool JsonValue::as_bool() const {
  EIM_CHECK_MSG(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  EIM_CHECK_MSG(kind_ == Kind::Int, "JSON value is not an integer");
  return int_;
}

double JsonValue::as_double() const {
  EIM_CHECK_MSG(is_number(), "JSON value is not a number");
  return kind_ == Kind::Int ? static_cast<double>(int_) : double_;
}

const std::string& JsonValue::as_string() const {
  EIM_CHECK_MSG(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  EIM_CHECK_MSG(kind_ == Kind::Array, "JSON value is not an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  EIM_CHECK_MSG(kind_ == Kind::Object, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* found = find(key);
  EIM_CHECK_MSG(found != nullptr, "missing JSON object member '" + std::string(key) + "'");
  return *found;
}

void JsonValue::write(JsonWriter& w) const {
  switch (kind_) {
    case Kind::Null: w.null(); break;
    case Kind::Bool: w.value(bool_); break;
    case Kind::Int: w.value(int_); break;
    case Kind::Double: w.value(double_); break;
    case Kind::String: w.value(std::string_view(string_)); break;
    case Kind::Array:
      w.begin_array();
      for (const JsonValue& item : items_) item.write(w);
      w.end_array();
      break;
    case Kind::Object:
      w.begin_object();
      for (const Member& m : members_) {
        w.key(m.first);
        m.second.write(w);
      }
      w.end_object();
      break;
  }
}

bool JsonValue::structurally_equal(const JsonValue& other) const {
  if (is_number() && other.is_number()) return as_double() == other.as_double();
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == other.bool_;
    case Kind::Int:
    case Kind::Double: return true;  // handled above
    case Kind::String: return string_ == other.string_;
    case Kind::Array: {
      if (items_.size() != other.items_.size()) return false;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (!items_[i].structurally_equal(other.items_[i])) return false;
      }
      return true;
    }
    case Kind::Object: {
      if (members_.size() != other.members_.size()) return false;
      for (const Member& m : members_) {
        const JsonValue* peer = other.find(m.first);
        if (peer == nullptr || !m.second.structurally_equal(*peer)) return false;
      }
      return true;
    }
  }
  return false;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_int(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::Int;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::make_double(double d) {
  JsonValue v;
  v.kind_ = Kind::Double;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

// ---- parser --------------------------------------------------------------

namespace {

/// Recursive-descent RFC 8259 parser over a string_view. Depth-limited so a
/// hostile input cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(what, pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    JsonValue v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"': v = JsonValue::make_string(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v = JsonValue::make_bool(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v = JsonValue::make_bool(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        break;
      default: v = parse_number(); break;
    }
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<JsonValue::Member> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        refuse_duplicate_keys(members);
        return JsonValue::make_object(std::move(members));
      }
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  /// An object names each key once: member lookup finds the first of a
  /// repeated key, so a repeat would be unreachable, and the object would
  /// not compare structurally equal to itself.
  void refuse_duplicate_keys(const std::vector<JsonValue::Member>& members) const {
    if (members.size() < 2) return;
    std::vector<std::string_view> keys;
    keys.reserve(members.size());
    for (const JsonValue::Member& m : members) keys.emplace_back(m.first);
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      fail("duplicate object key");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue::make_array(std::move(items));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    std::uint32_t code = parse_hex4();
    // Surrogate pair -> one code point.
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
        fail("unpaired high surrogate");
      }
      pos_ += 2;
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  /// One or more digits; false (nothing consumed) when none is next.
  bool consume_digits() {
    if (!at_digit()) return false;
    while (at_digit()) ++pos_;
    return true;
  }

  /// JSON's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?:
  /// no leading zero, no leading '+' or '.', no trailing '.'.
  JsonValue parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!at_digit()) fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
      if (at_digit()) fail("leading zero in number");
    } else {
      consume_digits();
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!consume_digits()) fail("invalid number");
      integral = false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!consume_digits()) fail("invalid number");
      integral = false;
    }
    const std::string_view token = text_.substr(begin, pos_ - begin);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        return JsonValue::make_int(value);
      }
      // Out of int64 range: fall through to double.
    }
    const std::string copy(token);  // strtod needs NUL termination
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) fail("invalid number");
    // A finite token that overflows would come back as +-inf, which JSON
    // cannot hold (the writer would turn it into null).
    if (std::isinf(value)) fail("number out of range");
    return JsonValue::make_double(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonParser parser(text);
  return parser.parse_document();
}

void JsonWriter::escape(std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': *out_ << "\\\""; break;
      case '\\': *out_ << "\\\\"; break;
      case '\n': *out_ << "\\n"; break;
      case '\r': *out_ << "\\r"; break;
      case '\t': *out_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out_ << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          *out_ << c;
        }
    }
  }
}

}  // namespace eim::support
