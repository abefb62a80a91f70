// Structured error taxonomy for the ingest layer (INI configs, traces,
// journals, JSON/JSONL).
//
// Every parse failure answers three questions:
//   what   -- a one-line message naming the problem,
//   where  -- source name plus line number or byte offset,
//   how    -- an actionable hint ("write 'key = value'", "delete the
//             stale journal", ...).
//
// cnt::Error derives from std::runtime_error and cnt::ValueError from
// std::invalid_argument, so pre-taxonomy call sites (and tests) that
// catch the standard types keep working; new code catches cnt::ErrorBase
// to read the structured fields. Conventions and the full catalog:
// docs/error_handling.md.
#pragma once

#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cnt {

/// Failure classes shared by every ingest format.
enum class Errc : u8 {
  kIo,            ///< cannot open / read / rename a file
  kSyntax,        ///< malformed text (missing '=', bad JSON token, ...)
  kValue,         ///< well-formed text, unparseable value ("3x" as int)
  kRange,         ///< parseable value outside its legal range
  kLimit,         ///< strict-parse resource cap exceeded (line/record/alloc)
  kMagic,         ///< binary file is not the expected format at all
  kVersion,       ///< right format, unsupported version
  kChecksum,      ///< CRC / seal mismatch on otherwise readable content
  kSchema,        ///< structurally valid input missing required fields,
                  ///< or an identity mismatch (journal fingerprint)
  kDuplicateKey,  ///< the same key defined twice where that is ambiguous
  kUnknownKey,    ///< a key the schema does not define
  kTruncated,     ///< input ends mid-record
  kInternal,      ///< invariant violation; a bug, not an input problem
  kCancelled,     ///< work abandoned on request (signal, shutdown)
  kTimeout,       ///< a deadline or watchdog expired (common/cancel.hpp)
};

/// Stable lowercase name ("syntax", "duplicate-key", ...) for rendering
/// and for deterministic fuzz-outcome digests.
[[nodiscard]] std::string_view errc_name(Errc code) noexcept;

/// The structured payload carried by every taxonomy exception.
struct ErrorInfo {
  Errc code = Errc::kInternal;
  std::string message;  ///< what happened
  std::string source;   ///< file path, or "<string>" / "<stream>"
  u64 line = 0;         ///< 1-based line number; 0 = not line-addressed
  u64 byte = 0;         ///< byte offset; used when line == 0
  std::string hint;     ///< how to fix it ("" = no hint)
  std::vector<std::string> context;  ///< enclosing operations, innermost first

  /// "cfg.ini: line 3" / "row.json: byte 17" / "cfg.ini" / "".
  [[nodiscard]] std::string where() const;
  /// Single-line rendering: `[code] where: message (while ...) -- hint: ...`.
  [[nodiscard]] std::string render() const;
};

/// Virtual interface shared by Error and ValueError so call sites can
/// `catch (const cnt::ErrorBase& e)` regardless of the std base class.
class ErrorBase {
 public:
  virtual ~ErrorBase() = default;
  [[nodiscard]] virtual const ErrorInfo& info() const noexcept = 0;
};

/// Taxonomy exception over a standard base class. Builder methods are
/// rvalue-qualified so a throw site reads as one expression:
///
///   throw Error(Errc::kSyntax, "missing '='")
///       .at(path, line_no)
///       .hint("write 'key = value'");
template <class StdExc>
class BasicError : public StdExc, public ErrorBase {
 public:
  BasicError(Errc code, std::string message) : StdExc("") {
    info_.code = code;
    info_.message = std::move(message);
    rendered_ = info_.render();
  }

  /// Attach the source name and an optional 1-based line number.
  BasicError&& at(std::string source, u64 line = 0) && {
    info_.source = std::move(source);
    info_.line = line;
    return update();
  }

  /// Attach the source name and a byte offset (binary / JSON inputs).
  BasicError&& at_byte(std::string source, u64 byte) && {
    info_.source = std::move(source);
    info_.byte = byte;
    return update();
  }

  /// Attach the "how to fix" hint.
  BasicError&& hint(std::string how) && {
    info_.hint = std::move(how);
    return update();
  }

  /// Push an enclosing-operation frame ("loading sweep journal", ...).
  BasicError&& context(std::string frame) && {
    info_.context.push_back(std::move(frame));
    return update();
  }

  [[nodiscard]] const char* what() const noexcept override {
    return rendered_.c_str();
  }
  [[nodiscard]] const ErrorInfo& info() const noexcept override {
    return info_;
  }
  [[nodiscard]] Errc code() const noexcept { return info_.code; }

 private:
  BasicError&& update() {
    rendered_ = info_.render();
    return std::move(*this);
  }

  ErrorInfo info_;
  std::string rendered_;
};

/// Parse / I-O failures (catchable as std::runtime_error).
using Error = BasicError<std::runtime_error>;
/// Malformed values behind a valid syntax (catchable as
/// std::invalid_argument, the pre-taxonomy contract of Config getters).
using ValueError = BasicError<std::invalid_argument>;

/// Rich rendering for CLI error paths: the structured render() when `e`
/// carries an ErrorInfo, plain what() otherwise.
[[nodiscard]] std::string format_error(const std::exception& e);

/// Config knob check: throw ValueError (Errc::kRange) naming the INI `key`
/// and hinting "use <meaning>" unless lo <= value <= hi (NaN fails every
/// comparison, so it is refused too).
void require_range(const char* key, double value, double lo, double hi,
                   const char* meaning);

/// Strict-parse resource caps. Every ingest parser enforces these so a
/// malformed or hostile input can never trigger unbounded memory growth:
/// text lines and record/key counts are bounded, and a binary header's
/// declared count can only pre-reserve up to max_reserve_bytes (larger
/// declared counts still parse; the vector then grows only as records
/// actually arrive and truncation is reported instead).
struct ParseLimits {
  usize max_line_bytes = usize{1} << 20;      ///< 1 MiB per text line
  usize max_records = usize{1} << 26;         ///< records / rows / keys
  usize max_reserve_bytes = usize{64} << 20;  ///< 64 MiB preallocation cap
  usize max_depth = 64;                       ///< JSON nesting depth
};

inline constexpr ParseLimits kDefaultLimits{};

/// Outcome of a bounded line read.
enum class LineStatus : u8 {
  kOk,      ///< a line (possibly empty) was read into `out`
  kEof,     ///< no characters left; `out` is empty
  kTooLong, ///< the line exceeds max_bytes; `out` holds the read prefix
};

/// std::getline with a byte cap: reads up to (not including) '\n',
/// returning kTooLong instead of growing `out` past `max_bytes`. Callers
/// decide whether an over-long line is a thrown kLimit error (strict
/// parsers) or data corruption (journal loading, which never throws).
[[nodiscard]] LineStatus bounded_getline(std::istream& is, std::string& out,
                                         usize max_bytes);

/// Nearest candidate by edit distance for "did you mean ...?" hints;
/// "" when nothing is close (distance must be <= max(2, |key| / 4)).
[[nodiscard]] std::string nearest_match(
    const std::string& key, const std::vector<std::string>& candidates);

}  // namespace cnt
