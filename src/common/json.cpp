#include "common/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace cnt {

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent) {
  stack_.push_back(Ctx::kTop);
  has_items_.push_back(false);
}

JsonWriter::~JsonWriter() {
  assert(done() && "JsonWriter destroyed with unterminated containers");
}

bool JsonWriter::done() const noexcept {
  return stack_.size() == 1 && top_written_;
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (usize i = 1; i < stack_.size(); ++i) {
    for (int s = 0; s < indent_; ++s) os_ << ' ';
  }
}

void JsonWriter::before_value() {
  const Ctx ctx = stack_.back();
  assert(ctx != Ctx::kObject &&
         "value inside an object requires a preceding key()");
  if (ctx == Ctx::kTop) {
    assert(!top_written_ && "only one top-level JSON value allowed");
    top_written_ = true;
    return;
  }
  if (ctx == Ctx::kAwaitValue) {
    stack_.pop_back();  // the key consumed; back to the object
    return;
  }
  // Array element.
  if (has_items_.back()) os_ << ',';
  has_items_.back() = true;
  newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Ctx::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(stack_.back() == Ctx::kObject);
  const bool had = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had) {
    // Closing brace at the parent's indent level.
    if (indent_ > 0) {
      os_ << '\n';
      for (usize i = 1; i < stack_.size(); ++i) {
        for (int s = 0; s < indent_; ++s) os_ << ' ';
      }
    }
  }
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Ctx::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(stack_.back() == Ctx::kArray);
  const bool had = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had && indent_ > 0) {
    os_ << '\n';
    for (usize i = 1; i < stack_.size(); ++i) {
      for (int s = 0; s < indent_; ++s) os_ << ' ';
    }
  }
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  assert(stack_.back() == Ctx::kObject && "key() outside an object");
  if (has_items_.back()) os_ << ',';
  has_items_.back() = true;
  newline_indent();
  write_escaped(name);
  os_ << (indent_ > 0 ? ": " : ":");
  stack_.push_back(Ctx::kAwaitValue);
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  write_escaped(s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  os_ << "null";
  return *this;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw kind_error("bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) throw kind_error("number");
  if (!is_integer_) return num_;
  const double mag = static_cast<double>(int_);
  return negative_ ? -mag : mag;
}

u64 JsonValue::as_u64() const {
  if (kind_ != Kind::kNumber) throw kind_error("number");
  if (is_integer_) {
    if (negative_) {
      throw Error(Errc::kRange, "JsonValue: negative integer read as u64")
          .hint("the field must be non-negative");
    }
    return int_;
  }
  if (num_ < 0.0) {
    throw Error(Errc::kRange, "JsonValue: negative number read as u64")
        .hint("the field must be non-negative");
  }
  return static_cast<u64>(num_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw kind_error("string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw kind_error("array");
  return arr_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  if (kind_ != Kind::kObject) throw kind_error("object");
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw Error(Errc::kSchema,
                "JsonValue: missing key \"" + std::string(key) + "\"")
        .hint("the input is valid JSON but lacks a required field");
  }
  return *v;
}

JsonValue JsonValue::make_bool(bool v) noexcept {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_integer(u64 v, bool negative) noexcept {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.is_integer_ = true;
  j.negative_ = negative;
  j.int_ = v;
  return j;
}

JsonValue JsonValue::make_double(double v) noexcept {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string s) noexcept {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

JsonValue JsonValue::make_array() noexcept {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue JsonValue::make_object() noexcept {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

Error JsonValue::kind_error(const char* want) const {
  static constexpr const char* kKindNames[] = {"null",   "bool",  "number",
                                               "string", "array", "object"};
  return Error(Errc::kValue,
               std::string("JsonValue: not a ") + want + " (value is " +
                   kKindNames[static_cast<usize>(kind_)] + ")")
      .hint("the field exists but holds the wrong JSON type");
}

namespace {

/// Recursive-descent JSON parser over a string_view. No allocation beyond
/// the resulting tree; errors carry the source name and byte offset for
/// torn-line diagnostics, and nesting depth is bounded by ParseLimits.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string source,
             const ParseLimits& limits)
      : text_(text), source_(std::move(source)), limits_(limits) {}

  JsonValue parse() {
    skip_ws();
    JsonValue v = parse_value(/*depth=*/0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what,
                         Errc code = Errc::kSyntax) const {
    throw Error(code, what)
        .at_byte(source_, pos_)
        .hint("the input is not well-formed JSON");
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_ws() noexcept {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) noexcept {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(usize depth) {
    if (depth > limits_.max_depth) {
      fail("nesting deeper than the strict-parse cap of " +
               std::to_string(limits_.max_depth),
           Errc::kLimit);
    }
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(usize depth) {
    expect('{');
    JsonValue obj = JsonValue::make_object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.mutable_object().emplace_back(std::move(key),
                                        parse_value(depth + 1));
      skip_ws();
      if (at_end()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array(usize depth) {
    expect('[');
    JsonValue arr = JsonValue::make_array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      skip_ws();
      arr.mutable_array().push_back(parse_value(depth + 1));
      skip_ws();
      if (at_end()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    u32 cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<u32>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<u32>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<u32>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs are not produced
    // by JsonWriter, which only escapes control characters).
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const usize start = pos_;
    bool negative = false;
    bool integral = true;
    if (!at_end() && peek() == '-') {
      negative = true;
      ++pos_;
    }
    if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      // Build the magnitude directly so u64-range values survive exactly.
      u64 mag = 0;
      bool overflow = false;
      for (const char c : token) {
        if (c == '-') continue;
        const u64 digit = static_cast<u64>(c - '0');
        if (mag > (~0ull - digit) / 10) {
          overflow = true;
          break;
        }
        mag = mag * 10 + digit;
      }
      if (!overflow) return JsonValue::make_integer(mag, negative);
    }
    // strtod of a %.17g rendering reproduces the original double exactly.
    return JsonValue::make_double(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::string source_;
  const ParseLimits& limits_;
  usize pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text, std::string source,
                     const ParseLimits& limits) {
  return JsonParser(text, std::move(source), limits).parse();
}

void JsonWriter::write_escaped(std::string_view s) {
  os_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\r': os_ << "\\r"; break;
      case '\t': os_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

}  // namespace cnt
