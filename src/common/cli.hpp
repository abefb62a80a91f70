// One strict command line for every binary: a small declarative parser.
//
// A main binds each flag and positional to a variable that already holds
// its default, then parses once:
//
//   u64 seeds = 1;
//   std::string family;
//   cli::Parser cli("cnt-torture", "Run the torture wall.");
//   cli.flag(&seeds, "--seeds", "trigger points per case", {.min = 1})
//       .flag(&family, "--family", "one family",
//             {.choices = {"crash", "chaos"}});
//   if (const auto rc = cli.parse(argc, argv)) return *rc;
//
// Spellings: `--flag V`, `--flag=V` and one short alias (`-j V`). A bool
// flag takes no value; its optional negation (`--no-resume`) clears it.
// The last occurrence of a flag wins; a flag bound to a vector appends,
// and a vector positional takes the rest of the line. A lone `-` is a
// positional (cnt_sweep's "built-in defaults" base).
//
// Every number goes through parse_u64/parse_double, one std::from_chars
// path: counts are decimal digits only (no sign, nothing glued on, no
// overflow), reals are the whole text and finite. `--help`/`-h` prints
// the generated usage on stdout and parse() returns 0. An unknown flag, a
// missing value, a malformed or out-of-range number, a value outside a
// choice list, or a missing or extra positional prints one line naming
// the offender plus the usage line on stderr, and parse() returns 2.
#pragma once

#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace cnt::cli {

/// Decimal digits only, the whole text, at most 2^64 - 1; else nullopt.
[[nodiscard]] std::optional<u64> parse_u64(std::string_view text) noexcept;

/// A finite real spelled as the whole text ("0.5", "1e-2"); else nullopt
/// -- junk, blanks, inf, nan and overflow included.
[[nodiscard]] std::optional<double> parse_double(
    std::string_view text) noexcept;

/// The variable an argument writes; an optional is set only when given.
using Target =
    std::variant<bool*, u64*, double*, std::string*, std::optional<u64>*,
                 std::optional<double>*, std::optional<std::string>*,
                 std::vector<std::string>*>;

/// What an argument needs beyond its name and help line.
struct Arg {
  std::string alias = {};     ///< flags: one short spelling, e.g. "-j"
  std::string negation = {};  ///< bool flags: the spelling that clears it
  std::string value = {};     ///< placeholder in the usage ("DIR")
  u64 min = 0;                ///< whole numbers: the accepted range
  u64 max = std::numeric_limits<u64>::max();
  std::vector<std::string> choices = {};  ///< text: the accepted values
  bool required = false;                  ///< positionals: must be given
  /// Bool flags that do a job of their own (--list): when given, missing
  /// positionals are not an error.
  bool standalone = false;
};

class Parser {
 public:
  Parser(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  /// Declare a flag ("--jobs") or the next positional ("scale").
  /// Required positionals come first, a vector positional last.
  Parser& flag(Target target, std::string name, std::string help,
               Arg arg = {});
  Parser& positional(Target target, std::string name, std::string help,
                     Arg arg = {});

  /// Parse argv into the bound variables. nullopt: go on. Otherwise the
  /// main's exit status: 0 after --help, 2 after a usage error.
  [[nodiscard]] std::optional<int> parse(int argc, const char* const* argv,
                                         std::ostream& out = std::cout,
                                         std::ostream& err = std::cerr) const;

  /// Report a usage error: one line plus the usage line. Returns 2.
  [[nodiscard]] int usage_error(const std::string& message,
                                std::ostream& err = std::cerr) const;

 private:
  struct Entry {
    Target target;
    std::string name, help;
    Arg arg;
  };

  [[nodiscard]] std::optional<std::string> assign(const Entry& e,
                                                  std::string_view text) const;
  void write_usage(std::ostream& os) const;
  void write_help(std::ostream& os) const;

  std::string program_, summary_;
  std::vector<Entry> flags_, positionals_;
};

}  // namespace cnt::cli
