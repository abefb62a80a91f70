#include "trace/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/io.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"

namespace cnt {

namespace {

MemOp parse_op(char c, const std::string& source, usize line_no) {
  switch (c) {
    case 'R': return MemOp::kRead;
    case 'W': return MemOp::kWrite;
    case 'I': return MemOp::kIFetch;
    default: break;
  }
  throw Error(Errc::kSyntax, "bad op '" + std::string(1, c) + "'")
      .at(source, line_no)
      .hint("each record starts with R (read), W (write) or I (ifetch)");
}

/// One whole field as an unsigned number in `base`: digits only, so a
/// sign, a 0x prefix or anything glued on is a syntax error.
u64 parse_field(std::string_view tok, int base, const char* what,
                const std::string& source, usize line_no) {
  u64 v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v, base);
  const char* digits = base == 16 ? "hex" : "decimal";
  if (ec == std::errc::invalid_argument || ptr != end) {
    throw Error(Errc::kSyntax,
                std::string("bad ") + what + " '" + std::string(tok) + "'")
        .at(source, line_no)
        .hint(std::string(what) + " fields are bare " + digits +
              " digits: no sign, no prefix, nothing glued on");
  }
  if (ec == std::errc::result_out_of_range) {
    throw Error(Errc::kRange, std::string(what) + " '" + std::string(tok) +
                                  "' does not fit in 64 bits")
        .at(source, line_no)
        .hint("every numeric field is at most 64 bits wide");
  }
  return v;
}

}  // namespace

TraceFormat trace_format(const std::string& path) {
  if (path.ends_with(".txt")) return TraceFormat::kText;
  if (path.ends_with(".trs")) return TraceFormat::kStream;
  throw Error(Errc::kValue, "unsupported trace file extension")
      .at(path)
      .hint("trace files are .txt (text, human-editable) or .trs "
            "(chunked, streamable)");
}

void write_text(const Trace& trace, std::ostream& os) {
  os << "# cnt-cache trace: " << trace.name() << "\n";
  os << "# records: " << trace.size() << "\n";
  os << std::hex;
  for (const auto& a : trace) {
    os << to_string(a.op) << ' ' << a.addr << ' ' << std::dec
       << static_cast<u32>(a.size) << std::hex;
    if (a.op == MemOp::kWrite) os << ' ' << a.value;
    os << '\n';
  }
  os << std::dec;
}

Trace read_text(std::istream& is, std::string name,
                const ParseLimits& limits) {
  Trace trace(name);
  const std::string& source = name;
  std::string line;
  std::vector<std::string> tok;
  usize line_no = 0;
  for (;;) {
    const LineStatus status = bounded_getline(is, line, limits.max_line_bytes);
    if (status == LineStatus::kEof) break;
    ++line_no;
    if (status == LineStatus::kTooLong) {
      throw Error(Errc::kLimit,
                  "line exceeds the " +
                      std::to_string(limits.max_line_bytes) +
                      "-byte strict-parse cap")
          .at(source, line_no)
          .hint("text trace records are short; this is not a CNT text "
                "trace");
    }
    // Strip comments, then split on whitespace; blank lines are skipped.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    tok.clear();
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;
    if (tok[0].size() != 1) {
      throw Error(Errc::kSyntax, "bad op token '" + tok[0] + "'")
          .at(source, line_no)
          .hint("each record starts with R (read), W (write) or I (ifetch)");
    }
    MemAccess a;
    a.op = parse_op(tok[0][0], source, line_no);
    if (tok.size() < 3) {
      throw Error(Errc::kSyntax, "bad addr/size fields")
          .at(source, line_no)
          .hint("records are '<op> <hex-addr> <decimal-size> [hex-value]'");
    }
    a.addr = parse_field(tok[1], 16, "address", source, line_no);
    const u64 size = parse_field(tok[2], 10, "size", source, line_no);
    // Validate before narrowing to u8: a size like 264 would otherwise
    // truncate to 8 and pass valid() silently.
    if (size < 1 || size > 255) {
      throw Error(Errc::kRange,
                  "size " + std::to_string(size) + " out of range [1, 255]")
          .at(source, line_no)
          .hint("access sizes are bytes per access and fit in 8 bits");
    }
    a.size = static_cast<u8>(size);
    usize fields = 3;
    if (a.op == MemOp::kWrite) {
      if (tok.size() < 4) {
        throw Error(Errc::kSyntax, "missing write value")
            .at(source, line_no)
            .hint("W records are 'W <hex-addr> <size> <hex-value>'");
      }
      a.value = parse_field(tok[3], 16, "value", source, line_no);
      fields = 4;
    }
    if (tok.size() > fields) {
      throw Error(Errc::kSyntax, "trailing field '" + tok[fields] + "'")
          .at(source, line_no)
          .hint("records are '<op> <hex-addr> <decimal-size> [hex-value]'; "
                "start a comment with '#'");
    }
    if (!a.valid()) {
      throw Error(Errc::kRange, "invalid access (size must be 1/2/4/8 and "
                                "the address size-aligned)")
          .at(source, line_no)
          .hint("capture traces with the in-tree tools to get aligned "
                "power-of-two accesses");
    }
    if (trace.size() >= limits.max_records) {
      throw Error(Errc::kLimit,
                  "more than " + std::to_string(limits.max_records) +
                      " records (strict-parse cap)")
          .at(source, line_no)
          .hint("raise ParseLimits::max_records if this is a real trace");
    }
    trace.push(a);
  }
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  if (trace_format(path) == TraceFormat::kStream) {
    stream::StreamTraceWriter writer(path);
    for (const auto& a : trace) writer.push(a);
    writer.finish();
    return;
  }
  // Publish-atomic (docs/crash_consistency.md): the trace appears at
  // `path` only after a checked write + fsync + rename, so a killed or
  // failed save never leaves a truncated readable-looking trace.
  io::AtomicFileWriter out(path, "trace");
  write_text(trace, out.stream());
  out.commit();
}

std::unique_ptr<TraceSource> open_trace(const std::string& path) {
  if (trace_format(path) == TraceFormat::kStream) {
    return std::make_unique<stream::StreamTraceSource>(path);
  }
  std::ifstream in(path);
  if (!in) {
    throw Error(Errc::kIo, "cannot open trace file")
        .at(path)
        .hint("check the path and permissions");
  }
  // Trace name = file basename.
  const auto slash = path.find_last_of('/');
  return std::make_unique<VectorTraceSource>(read_text(
      in, slash == std::string::npos ? path : path.substr(slash + 1)));
}

}  // namespace cnt
