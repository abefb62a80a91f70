// Deterministic, dependency-free structure-aware fuzzer for the ingest
// layer (the "fuzz wall", docs/error_handling.md).
//
// Design:
//  - every random decision flows through cnt::Rng, so a (seed, runs,
//    corpus) triple reproduces the exact same mutated inputs and the
//    exact same outcome digest on every platform and every rerun;
//  - mutations start from a checked-in corpus of valid (`seed_*`) and
//    known-bad (`bad_*`) inputs per format, so most mutants stay close
//    enough to the grammar to reach deep parser states;
//  - each parser runs in-process; the wall's invariant is that EVERY
//    input either parses or raises a *structured* cnt::Error -- any other
//    exception (or an abort / sanitizer report) is a finding.
//
// The wall runs in the default and asan builds as ctest label `fuzz`
// (tests/test_fuzz_wall.cpp) and standalone via the cnt-fuzz CLI. The
// optional libFuzzer entry points live behind the CNT_LIBFUZZER CMake
// option (fuzz_entry.cpp) for open-ended coverage-guided runs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace cnt::fuzz {

/// The five ingest parsers under the wall. Values are pinned: a target's
/// value is part of its test id, so a retired target leaves a gap (2 was
/// the CNTTRC01 binary trace reader) instead of renumbering the rest.
enum class FuzzTarget : u8 {
  kIni = 0,          ///< Config::parse, then sim_config_from (INI)
  kTraceText = 1,    ///< read_text (text trace)
  kJournal = 3,      ///< exec::read_journal (sealed JSONL journal)
  kJsonl = 4,        ///< parse_json per line (telemetry rows)
  kTraceStream = 5,  ///< stream::StreamTraceSource (chunked columnar trace)
};

inline constexpr FuzzTarget kAllTargets[] = {
    FuzzTarget::kIni, FuzzTarget::kTraceText, FuzzTarget::kJournal,
    FuzzTarget::kJsonl, FuzzTarget::kTraceStream};

/// Stable name ("ini", "trace_text", ...); doubles as the corpus
/// subdirectory name under tests/fuzz/corpus/.
[[nodiscard]] std::string_view target_name(FuzzTarget t) noexcept;

/// Inverse of target_name; returns false on an unknown name.
[[nodiscard]] bool parse_target(std::string_view name, FuzzTarget& out);

/// Tight limits for fuzzing: small enough that limit paths are reachable
/// within mutated corpus sizes, and that no single run allocates much.
inline constexpr ParseLimits kFuzzLimits{
    /*max_line_bytes=*/4096,
    /*max_records=*/4096,
    /*max_reserve_bytes=*/usize{1} << 20,
    /*max_depth=*/16,
};

/// One corpus entry. `expect_bad` mirrors the file-name convention:
/// `seed_*` inputs must be accepted by their parser, `bad_*` inputs must
/// be rejected with a structured error. Binary payloads are stored as
/// `.hex` files (whitespace-separated hex bytes) and decoded on load.
struct CorpusEntry {
  std::string name;
  std::string data;
  bool expect_bad = false;
};

/// Load every regular file in `dir`, sorted by file name so iteration
/// order (and therefore the fuzz stream) is platform-independent. Throws
/// cnt::Error (kIo) if the directory is missing or empty.
[[nodiscard]] std::vector<CorpusEntry> load_corpus(const std::string& dir);

/// How one input fared against its parser.
struct FuzzOutcome {
  enum class Cls : u8 {
    kAccepted,  ///< parsed cleanly
    kRejected,  ///< raised a structured cnt::Error / cnt::ValueError
    kCrashed,   ///< raised anything else -- a wall violation
  };
  Cls cls = Cls::kAccepted;
  /// errc_name() for kRejected; journal state ("clean"/"torn"/
  /// "mid-file"/"no-header") for kJournal; what() for kCrashed.
  std::string label;
};

/// Run one input through one parser, in-process, classifying the result.
/// Never lets an exception escape.
[[nodiscard]] FuzzOutcome classify(FuzzTarget t, const std::string& input);

/// Apply 1..4 seeded mutations to a corpus pick (bit/byte flips, chunk
/// truncate/duplicate/delete, insertions, digit swaps, line swaps, and
/// cross-entry splices). Exposed for tests.
[[nodiscard]] std::string mutate(Rng& rng, const std::string& base,
                                 const std::vector<CorpusEntry>& corpus);

/// Aggregate result of a fuzzing campaign against one target.
struct FuzzReport {
  u64 runs = 0;
  u64 accepted = 0;
  u64 rejected = 0;
  u64 crashed = 0;  ///< wall violations (must be 0)
  u64 digest = 0;   ///< FNV over every (input hash, outcome) pair
  std::string first_crash_input;  ///< hex dump of the first violating input
  std::string first_crash_what;   ///< its exception message
};

/// Fuzz `target` for `runs` mutated inputs derived from `corpus` under
/// `seed`. Deterministic: equal arguments produce an equal report
/// (including `digest`) on every rerun.
[[nodiscard]] FuzzReport fuzz_target(FuzzTarget target,
                                     const std::vector<CorpusEntry>& corpus,
                                     u64 seed, u64 runs);

/// Hex-dump helper for reporting crash inputs ("de ad be ef ...").
[[nodiscard]] std::string hex_dump(std::string_view bytes);

}  // namespace cnt::fuzz
