#include "cnt-fuzz/fuzzer.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "exec/journal.hpp"
#include "sim/config_io.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/trace_io.hpp"

namespace cnt::fuzz {

namespace {

namespace fs = std::filesystem;

[[nodiscard]] int hex_nibble(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Decode a `.hex` corpus file: whitespace-separated hex byte pairs
/// ('#' starts a comment until end of line).
std::string decode_hex_file(const std::string& text, const std::string& name) {
  std::string out;
  int hi = -1;
  bool comment = false;
  for (const char c : text) {
    if (c == '\n') {
      comment = false;
      continue;
    }
    if (comment) continue;
    if (c == '#') {
      comment = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    const int nib = hex_nibble(c);
    if (nib < 0) {
      throw Error(Errc::kSyntax,
                  "bad hex digit '" + std::string(1, c) + "' in corpus file")
          .at(name)
          .hint(".hex corpus files hold whitespace-separated hex byte "
                "pairs with optional '#' comments");
    }
    if (hi < 0) {
      hi = nib;
    } else {
      out += static_cast<char>((hi << 4) | nib);
      hi = -1;
    }
  }
  if (hi >= 0) {
    throw Error(Errc::kTruncated, "odd number of hex digits in corpus file")
        .at(name)
        .hint("every byte needs two hex digits");
  }
  return out;
}

}  // namespace

std::string_view target_name(FuzzTarget t) noexcept {
  switch (t) {
    case FuzzTarget::kIni: return "ini";
    case FuzzTarget::kTraceText: return "trace_text";
    case FuzzTarget::kJournal: return "journal";
    case FuzzTarget::kJsonl: return "jsonl";
    case FuzzTarget::kTraceStream: return "trace_stream";
  }
  return "?";
}

bool parse_target(std::string_view name, FuzzTarget& out) {
  for (const FuzzTarget t : kAllTargets) {
    if (target_name(t) == name) {
      out = t;
      return true;
    }
  }
  return false;
}

std::vector<CorpusEntry> load_corpus(const std::string& dir) {
  std::vector<CorpusEntry> corpus;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file()) continue;
    CorpusEntry entry;
    entry.name = de.path().filename().string();
    entry.expect_bad = entry.name.rfind("bad_", 0) == 0;
    std::ifstream in(de.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    entry.data = entry.name.size() >= 4 &&
                         entry.name.compare(entry.name.size() - 4, 4,
                                            ".hex") == 0
                     ? decode_hex_file(body.str(), entry.name)
                     : body.str();
    corpus.push_back(std::move(entry));
  }
  if (ec) {
    throw Error(Errc::kIo, "cannot read corpus directory")
        .at(dir)
        .hint("pass --corpus pointing at tests/fuzz/corpus/<target>");
  }
  if (corpus.empty()) {
    throw Error(Errc::kIo, "corpus directory is empty")
        .at(dir)
        .hint("each target needs seed_* (valid) and bad_* (known-bad) "
              "corpus files");
  }
  // directory_iterator order is filesystem-dependent; the fuzz stream
  // must not be, so anchor it by name.
  std::sort(corpus.begin(), corpus.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return a.name < b.name;
            });
  return corpus;
}

FuzzOutcome classify(FuzzTarget t, const std::string& input) {
  FuzzOutcome out;
  try {
    switch (t) {
      case FuzzTarget::kIni: {
        std::istringstream is(input);
        (void)sim_config_from(Config::parse(is, "fuzz", kFuzzLimits));
        break;
      }
      case FuzzTarget::kTraceText: {
        std::istringstream is(input);
        (void)read_text(is, "fuzz", kFuzzLimits);
        break;
      }
      case FuzzTarget::kJournal: {
        // read_journal never throws; its outcome is a state label.
        std::istringstream is(input);
        exec::JournalData data;
        if (!exec::read_journal(is, "fuzz", data, kFuzzLimits)) {
          out.cls = FuzzOutcome::Cls::kRejected;
          out.label = "no-header";
        } else if (data.mid_file_corruption) {
          out.cls = FuzzOutcome::Cls::kRejected;
          out.label = "mid-file";
        } else if (data.dropped_lines > 0) {
          // A torn tail is the normal crash signature: the loader
          // accepts the file and recovers the valid prefix.
          out.label = "torn";
        } else {
          out.label = "clean";
        }
        break;
      }
      case FuzzTarget::kJsonl: {
        std::istringstream is(input);
        std::string line;
        for (;;) {
          const LineStatus status =
              bounded_getline(is, line, kFuzzLimits.max_line_bytes);
          if (status == LineStatus::kEof) break;
          if (status == LineStatus::kTooLong) {
            throw Error(Errc::kLimit, "JSONL line over the fuzz cap")
                .at("fuzz")
                .hint("telemetry rows are far shorter than this");
          }
          if (line.empty()) continue;
          (void)parse_json(line, "fuzz", kFuzzLimits);
        }
        break;
      }
      case FuzzTarget::kTraceStream: {
        std::istringstream is(input);
        stream::StreamTraceSource src(is, "fuzz", kFuzzLimits);
        MemAccess buf[64];
        while (src.next(buf) != 0) {
        }
        break;
      }
    }
  } catch (const ErrorBase& e) {
    out.cls = FuzzOutcome::Cls::kRejected;
    out.label = std::string(errc_name(e.info().code));
  } catch (const std::exception& e) {
    out.cls = FuzzOutcome::Cls::kCrashed;
    out.label = e.what();
  } catch (...) {
    out.cls = FuzzOutcome::Cls::kCrashed;
    out.label = "non-std exception";
  }
  return out;
}

std::string mutate(Rng& rng, const std::string& base,
                   const std::vector<CorpusEntry>& corpus) {
  std::string s = base;
  const u64 rounds = 1 + rng.uniform(4);
  for (u64 round = 0; round < rounds; ++round) {
    if (s.empty()) {
      s += static_cast<char>(rng.next_byte());
      continue;
    }
    const usize pos = rng.uniform(s.size());
    switch (rng.uniform(9)) {
      case 0:  // flip one bit
        // cnt-lint: narrow-ok byte-level mutation
        s[pos] = static_cast<char>(static_cast<u8>(s[pos]) ^
                                   (u8{1} << rng.uniform(8)));
        break;
      case 1:  // overwrite one byte
        s[pos] = static_cast<char>(rng.next_byte());  // cnt-lint: narrow-ok
        break;
      case 2:  // truncate
        s.resize(pos);
        break;
      case 3: {  // insert a random byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                 // cnt-lint: narrow-ok byte insert
                 static_cast<char>(rng.next_byte()));
        break;
      }
      case 4: {  // duplicate a chunk in place
        const usize len = std::min<usize>(1 + rng.uniform(16), s.size() - pos);
        s.insert(pos, s.substr(pos, len));
        break;
      }
      case 5: {  // delete a chunk
        const usize len = std::min<usize>(1 + rng.uniform(16), s.size() - pos);
        s.erase(pos, len);
        break;
      }
      case 6: {  // digit nudge: reach range/limit paths through numbers
        const usize digit = s.find_first_of("0123456789", pos);
        if (digit != std::string::npos) {
          s[digit] = static_cast<char>('0' + rng.uniform(10));
        }
        break;
      }
      case 7: {  // splice: our prefix + another corpus entry's suffix
        const CorpusEntry& other = corpus[rng.uniform(corpus.size())];
        if (!other.data.empty()) {
          s = s.substr(0, pos) +
              other.data.substr(other.data.size() -
                                1 - rng.uniform(other.data.size()));
        }
        break;
      }
      default: {  // swap two whole lines (structure-level reorder)
        const usize a = s.find('\n');
        if (a != std::string::npos && a + 1 < s.size()) {
          const usize b = s.find('\n', a + 1);
          const std::string first = s.substr(0, a);
          const std::string second =
              b == std::string::npos ? s.substr(a + 1)
                                     : s.substr(a + 1, b - a - 1);
          const std::string rest =
              b == std::string::npos ? "" : s.substr(b);
          s = second + "\n" + first + rest;
        }
        break;
      }
    }
  }
  return s;
}

FuzzReport fuzz_target(FuzzTarget target,
                       const std::vector<CorpusEntry>& corpus, u64 seed,
                       u64 runs) {
  FuzzReport report;
  report.runs = runs;
  Rng rng(seed ^ fnv1a64(target_name(target)));
  Fnv1a64 digest;
  digest.update(std::string_view("cnt-fuzz-v1"));
  digest.update(std::string_view(target_name(target)));
  digest.update(seed);
  for (u64 i = 0; i < runs; ++i) {
    const CorpusEntry& base = corpus[rng.uniform(corpus.size())];
    const std::string input = mutate(rng, base.data, corpus);
    const FuzzOutcome outcome = classify(target, input);
    digest.update(fnv1a64(input));
    digest.update(static_cast<u64>(outcome.cls));
    digest.update(outcome.label);
    switch (outcome.cls) {
      case FuzzOutcome::Cls::kAccepted: ++report.accepted; break;
      case FuzzOutcome::Cls::kRejected: ++report.rejected; break;
      case FuzzOutcome::Cls::kCrashed:
        if (report.crashed == 0) {
          report.first_crash_input = hex_dump(input);
          report.first_crash_what = outcome.label;
        }
        ++report.crashed;
        break;
    }
  }
  report.digest = digest.digest();
  return report;
}

std::string hex_dump(std::string_view bytes) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 3);
  for (usize i = 0; i < bytes.size(); ++i) {
    const u8 b = static_cast<u8>(bytes[i]);  // cnt-lint: narrow-ok byte view
    if (i > 0) out += ' ';
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

}  // namespace cnt::fuzz
