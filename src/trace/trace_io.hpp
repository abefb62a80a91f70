// Trace files: one format for people and one for machines, chosen by the
// file extension in exactly one place (this module).
//
//   .txt  text, one record per line ('#' comments allowed):
//           R <hex-addr> <size>
//           W <hex-addr> <size> <hex-value>
//           I <hex-addr> <size>
//   .trs  chunked, CRC-sealed and streamable (docs/trace_streaming.md).
//
// Any other extension is refused with a structured error; there is no
// magic sniffing and no fallback reader.
//
// The text reader is strict (docs/error_handling.md): fields are bare
// hex (address, value) or decimal (size) digits with no sign, no prefix
// and nothing glued on, a record carries no trailing tokens, and every
// failure throws cnt::Error naming the source and line with a fix-it
// hint. ParseLimits bound line lengths and record counts.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/trace.hpp"

namespace cnt {

enum class TraceFormat : u8 { kText, kStream };

/// The one place a trace path's extension picks its format: `.txt` is
/// kText, `.trs` is kStream, and any other extension throws.
[[nodiscard]] TraceFormat trace_format(const std::string& path);

/// Serialize to the text format. Never fails on a well-formed trace.
void write_text(const Trace& trace, std::ostream& os);

/// Parse the text format. Throws cnt::Error naming `name` and the line
/// number on malformed input.
[[nodiscard]] Trace read_text(std::istream& is, std::string name = "trace",
                              const ParseLimits& limits = kDefaultLimits);

/// Write `trace` to `path`: `.txt` publish-atomically as text, `.trs` as
/// a sealed chunked file at the default chunk capacity. Any other
/// extension throws before a file is created.
void save_trace(const Trace& trace, const std::string& path);

/// Open `path` for replay: a `.txt` file loads into an owning
/// VectorTraceSource named by the file's basename; a `.trs` file streams
/// chunk by chunk. Any other extension throws.
[[nodiscard]] std::unique_ptr<TraceSource> open_trace(const std::string& path);

}  // namespace cnt
