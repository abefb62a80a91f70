#include "common/error.hpp"

#include <algorithm>
#include <sstream>

namespace cnt {

std::string_view errc_name(Errc code) noexcept {
  switch (code) {
    case Errc::kIo: return "io";
    case Errc::kSyntax: return "syntax";
    case Errc::kValue: return "value";
    case Errc::kRange: return "range";
    case Errc::kLimit: return "limit";
    case Errc::kMagic: return "magic";
    case Errc::kVersion: return "version";
    case Errc::kChecksum: return "checksum";
    case Errc::kSchema: return "schema";
    case Errc::kDuplicateKey: return "duplicate-key";
    case Errc::kUnknownKey: return "unknown-key";
    case Errc::kTruncated: return "truncated";
    case Errc::kInternal: return "internal";
    case Errc::kCancelled: return "cancelled";
    case Errc::kTimeout: return "timeout";
  }
  return "unknown";
}

std::string ErrorInfo::where() const {
  std::string out = source;
  if (line != 0) {
    if (!out.empty()) out += ": ";
    out += "line " + std::to_string(line);
  } else if (byte != 0) {
    if (!out.empty()) out += ": ";
    out += "byte " + std::to_string(byte);
  }
  return out;
}

std::string ErrorInfo::render() const {
  std::string out = "[";
  out += errc_name(code);
  out += "] ";
  const std::string loc = where();
  if (!loc.empty()) {
    out += loc;
    out += ": ";
  }
  out += message;
  for (const std::string& frame : context) {
    out += " (while ";
    out += frame;
    out += ")";
  }
  if (!hint.empty()) {
    out += " -- hint: ";
    out += hint;
  }
  return out;
}

void require_range(const char* key, double value, double lo, double hi,
                   const char* meaning) {
  if (value >= lo && value <= hi) return;
  std::ostringstream shown;
  shown << value;
  throw ValueError(Errc::kRange, std::string("key '") + key +
                                     "' has out-of-range value '" +
                                     shown.str() + "'")
      .hint(std::string("use ") + meaning);
}

std::string format_error(const std::exception& e) {
  if (const auto* structured = dynamic_cast<const ErrorBase*>(&e)) {
    return structured->info().render();
  }
  return e.what();
}

LineStatus bounded_getline(std::istream& is, std::string& out,
                           usize max_bytes) {
  out.clear();
  std::streambuf* buf = is.rdbuf();
  if (buf == nullptr) {
    is.setstate(std::ios::failbit);
    return LineStatus::kEof;
  }
  bool read_any = false;
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::streambuf::traits_type::eof()) {
      is.setstate(read_any ? std::ios::eofbit
                           : std::ios::eofbit | std::ios::failbit);
      return read_any ? LineStatus::kOk : LineStatus::kEof;
    }
    read_any = true;
    if (c == '\n') return LineStatus::kOk;
    if (out.size() >= max_bytes) return LineStatus::kTooLong;
    out += static_cast<char>(c & 0xff);
  }
}

namespace {

/// Classic two-row Levenshtein; both inputs are short config keys.
usize edit_distance(const std::string& a, const std::string& b) {
  std::vector<usize> prev(b.size() + 1);
  std::vector<usize> cur(b.size() + 1);
  for (usize j = 0; j <= b.size(); ++j) prev[j] = j;
  for (usize i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (usize j = 1; j <= b.size(); ++j) {
      const usize sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::string nearest_match(const std::string& key,
                          const std::vector<std::string>& candidates) {
  const usize cutoff = std::max<usize>(2, key.size() / 4);
  usize best = cutoff + 1;
  std::string winner;
  for (const std::string& c : candidates) {
    // Cheap lower bound: the distance is at least the length difference.
    const usize len_gap = c.size() > key.size() ? c.size() - key.size()
                                                : key.size() - c.size();
    if (len_gap >= best) continue;
    const usize d = edit_distance(key, c);
    if (d < best) {
      best = d;
      winner = c;
    }
  }
  return best <= cutoff ? winner : std::string{};
}

}  // namespace cnt
