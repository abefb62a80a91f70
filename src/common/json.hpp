// Minimal streaming JSON writer + recursive-descent reader for
// machine-readable experiment output.
//
// Writer: correct-by-construction nesting via an explicit context stack:
// commas and colons are inserted automatically, misuse (value without a
// key inside an object, end_object inside an array, ...) asserts. Doubles
// are emitted with enough digits to round-trip; non-finite doubles become
// null (JSON has no NaN/Inf).
//
// Reader: parse_json() builds a JsonValue tree. Numbers written by the
// writer round-trip exactly -- integers are kept as integers and doubles
// are parsed from the writer's %.17g rendering, so a value read back from
// a journal compares bit-equal to the value that produced it. Malformed
// input throws cnt::Error (Errc::kSyntax/kLimit) carrying the source name
// and byte offset; nesting depth is bounded by ParseLimits.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cnt {

class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 = compact single-line output.
  explicit JsonWriter(std::ostream& os, int indent = 2);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(u64 v);
  JsonWriter& value(i64 v);
  JsonWriter& value(u32 v) { return value(static_cast<u64>(v)); }
  JsonWriter& value(int v) { return value(static_cast<i64>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key(name) + value(v) in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// True once the single top-level value is complete.
  [[nodiscard]] bool done() const noexcept;

 private:
  enum class Ctx : u8 { kTop, kObject, kArray, kAwaitValue };
  void before_value();
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream& os_;
  int indent_;
  std::vector<Ctx> stack_;
  std::vector<bool> has_items_;
  bool top_written_ = false;
};

/// One parsed JSON value. Objects preserve member order (JSONL rows are
/// order-sensitive for byte-identical re-emission); duplicate keys keep
/// the first occurrence on lookup.
class JsonValue {
 public:
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors; throw cnt::Error (Errc::kValue) on a kind mismatch
  /// and Errc::kRange on sign violations.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] u64 as_u64() const;  ///< also accepts a non-negative double
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  as_object() const;

  /// Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Object member by key; throws cnt::Error (Errc::kSchema) naming the
  /// key when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  [[nodiscard]] static JsonValue make_null() noexcept { return {}; }
  [[nodiscard]] static JsonValue make_bool(bool v) noexcept;
  [[nodiscard]] static JsonValue make_integer(u64 v, bool negative) noexcept;
  [[nodiscard]] static JsonValue make_double(double v) noexcept;
  [[nodiscard]] static JsonValue make_string(std::string s) noexcept;
  [[nodiscard]] static JsonValue make_array() noexcept;
  [[nodiscard]] static JsonValue make_object() noexcept;

  std::vector<JsonValue>& mutable_array() noexcept { return arr_; }
  std::vector<std::pair<std::string, JsonValue>>& mutable_object() noexcept {
    return obj_;
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool is_integer_ = false;  ///< number was written without '.'/exponent
  bool negative_ = false;
  u64 int_ = 0;       ///< magnitude when is_integer_
  double num_ = 0.0;  ///< value when !is_integer_
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;

  [[nodiscard]] Error kind_error(const char* want) const;
};

/// Parse exactly one JSON value (leading/trailing whitespace allowed).
/// Throws cnt::Error with the source name and byte offset on malformed
/// input; `source` names the input in diagnostics (file path, "<json>").
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   std::string source = "<json>",
                                   const ParseLimits& limits =
                                       kDefaultLimits);

}  // namespace cnt
