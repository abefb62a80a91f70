// Minimal C++ lexer for cnt-lint.
//
// Produces a comment- and string-stripped token stream plus the raw
// source lines, the per-line suppression tags parsed from
// `// cnt-lint: <tag>` comments, the quoted `#include` targets (rule R8
// walks the include graph), `// cnt-lint: guarded-by(<mutex>)`
// annotations (rule R9) and `// cnt-hot` function markers (rule R10).
// Deliberately NOT a full C++ grammar: the rule engine (rules.hpp)
// works on token patterns plus a brace-scope model, which is enough for
// the determinism/invariant checks R1-R13 and keeps the tool free of a
// libclang dependency so it builds everywhere the project does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cnt::lint {

enum class TokKind : std::uint8_t {
  kIdent,    ///< identifier or keyword
  kNumber,   ///< numeric literal (incl. digit separators and suffixes)
  kString,   ///< string literal (text holds the quoted content)
  kCharLit,  ///< character literal
  kPunct,    ///< punctuation; multi-char: :: [[ ]] -> << >>
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::uint32_t line = 0;  ///< 1-based source line

  [[nodiscard]] bool is_ident(std::string_view s) const noexcept {
    return kind == TokKind::kIdent && text == s;
  }
  [[nodiscard]] bool is_punct(std::string_view s) const noexcept {
    return kind == TokKind::kPunct && text == s;
  }
};

/// One quoted `#include "target"` directive (angle-bracket system
/// includes are not recorded: R8 ranks project headers only).
struct IncludeDirective {
  std::string target;      ///< the quoted path, verbatim
  std::uint32_t line = 0;  ///< 1-based source line
};

/// One `// cnt-lint: guarded-by(<mutex>)` annotation. The guarded
/// variable is resolved from the declaration it annotates (same line or
/// the line below) by the rule engine, not the lexer.
struct GuardAnnotation {
  std::string mutex_name;
  std::uint32_t line = 0;  ///< line the marker comment sits on
};

/// One lexed translation unit.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw_lines;  ///< raw_lines[0] is line 1
  std::vector<Token> tokens;
  /// line -> suppression tags seen in a `cnt-lint:` comment on that
  /// line. The marker must open the comment (only whitespace or comment
  /// decoration before it), so prose *mentioning* the syntax never
  /// registers a suppression.
  std::unordered_map<std::uint32_t, std::vector<std::string>> suppressions;
  std::vector<IncludeDirective> includes;
  std::vector<GuardAnnotation> guarded_by;
  std::vector<std::uint32_t> hot_lines;  ///< lines bearing `// cnt-hot`

  /// True if `tag` is suppressed at `line`: a `// cnt-lint: <tag>`
  /// comment sits on the same line or on the line directly above.
  [[nodiscard]] bool suppressed(std::uint32_t line,
                                std::string_view tag) const noexcept;

  /// Line of the marker comment that suppresses `tag` at `line` (the
  /// line itself or the one above), or 0 when not suppressed. The
  /// unused-suppression audit needs to know *which* marker fired.
  [[nodiscard]] std::uint32_t suppression_line(
      std::uint32_t line, std::string_view tag) const noexcept;
};

/// Lex `content` (the bytes of the file at `path`). Never throws on
/// malformed input: unterminated literals simply run to end of line/file.
[[nodiscard]] SourceFile lex_file(std::string path, std::string_view content);

}  // namespace cnt::lint
