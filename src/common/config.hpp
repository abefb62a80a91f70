// Minimal INI-style configuration parser for the simulator front-ends.
//
// Format:
//   # comment / ; comment
//   [section]
//   key = value
//
// Keys are addressed as "section.key" (keys before any section header live
// in the "" section and are addressed by bare name). Values keep their raw
// text; typed getters parse on demand and throw cnt::ValueError (derived
// from std::invalid_argument) naming the key on malformed values, so
// configuration errors are caught loudly rather than silently defaulted.
//
// Strict parsing (docs/error_handling.md): every syntax error is a
// cnt::Error carrying the config *path*, the 1-based line number and a
// fix-it hint; a key defined twice within the same section is rejected
// (Errc::kDuplicateKey) instead of silently last-wins; and line length /
// key count are bounded by ParseLimits so a hostile file cannot trigger
// unbounded memory growth.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cnt {

class Config {
 public:
  Config() = default;

  /// Parse from a stream. `source` names the input in error messages
  /// (pass the file path when you have one). Throws cnt::Error on syntax
  /// errors, duplicate keys, or exceeded limits.
  [[nodiscard]] static Config parse(std::istream& is,
                                    std::string source = "<stream>",
                                    const ParseLimits& limits =
                                        kDefaultLimits);
  /// Parse a file; cnt::Error (Errc::kIo) if it cannot be opened. The
  /// path appears in every subsequent parse error.
  [[nodiscard]] static Config load(const std::string& path);
  /// Parse from a string (tests, inline configs).
  [[nodiscard]] static Config parse_string(const std::string& text);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] i64 get_int(const std::string& key, i64 fallback) const;
  /// Decimal digits with an optional '+', at most 2^64 - 1 ('-0' reads
  /// as 0). A negative value or junk is ValueError (Errc::kValue); a value
  /// past 2^64 - 1 is Errc::kRange naming the key.
  [[nodiscard]] u64 get_uint(const std::string& key, u64 fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Accepts true/false/1/0/yes/no/on/off (case-insensitive).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Sizes accept k/m/g suffixes (binary): "32k" -> 32768.
  [[nodiscard]] u64 get_size(const std::string& key, u64 fallback) const;

  /// All keys, sorted (diagnostics; lets a CLI warn about unknown keys).
  [[nodiscard]] std::vector<std::string> keys() const;

  void set(const std::string& key, std::string value);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace cnt
