// Crash-safe journal layer for engine-driven sweeps.
//
// A journal is the engine's JSONL telemetry file hardened for resume:
//  - line 0 is a sealed header recording the schema, the SweepSpec
//    fingerprint (hash of every job key, in submission order), and the
//    job count;
//  - every row carries a stable job key (hash of the job's full identity:
//    workload, tag, scale, seed offset, and the complete SimConfig) plus
//    a CRC-32 line checksum, appended as the final `"crc"` field;
//  - while a sweep runs, rows stream (with per-row flush) into
//    `<path>.partial`; only a completed sweep atomically renames the
//    partial onto `<path>`, so readers of `<path>` never observe a torn
//    file and a killed sweep leaves every finished row on disk.
//
// Resume (`--resume` / $CNT_RESUME) loads the partial (or final) journal,
// truncates any torn/corrupt tail at the first line that fails its
// checksum, rejects a header whose fingerprint does not match the
// relaunched sweep, and reconstructs a JobOutcome per valid `ok` row so
// only the missing jobs are re-simulated. Full semantics:
// docs/resumable_sweeps.md.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"

namespace cnt::exec {

inline constexpr std::string_view kRowSchema = "cnt-exec-v2";
inline constexpr std::string_view kHeaderSchema = "cnt-exec-journal-v1";

/// Stable identity of one job: workload, tag, scale, seed offset and the
/// config fingerprint. Deliberately excludes the submission id so the key
/// survives re-expansion of the same spec.
[[nodiscard]] u64 job_key(const Job& job) noexcept;

/// Fingerprint of a whole batch: the job count plus every job key in
/// submission order. Two SweepSpecs expand to the same fingerprint iff
/// they describe the same sweep.
[[nodiscard]] u64 sweep_fingerprint(const std::vector<Job>& jobs) noexcept;

/// Seal one serialized JSON object (`{...}`, no trailing newline) by
/// appending a final `"crc"` field whose CRC-32 covers every byte before
/// it. The result is still a single well-formed JSON object.
[[nodiscard]] std::string seal_line(std::string payload);

/// Verify a sealed line's checksum. True iff the line ends with a
/// well-formed `,"crc":"xxxxxxxx"}` suffix matching the preceding bytes.
[[nodiscard]] bool check_sealed_line(std::string_view line) noexcept;

/// Serialize + seal the journal header for a batch.
[[nodiscard]] std::string make_header_line(u64 fingerprint, u64 jobs);

/// One validated row of a loaded journal.
struct JournalRow {
  u64 job_id = 0;
  u64 key = 0;
  bool ok = false;
  std::string text;   ///< the exact sealed line (for byte-identical replay)
  JsonValue fields;   ///< parsed row for outcome reconstruction
};

/// A journal read back from disk. `rows` holds the valid prefix; loading
/// stops at the first line that fails its checksum or does not parse
/// (torn-tail truncation) and counts the discarded lines. If any *later*
/// line still carries a valid seal, the bad line is not a torn tail but
/// damage inside the file: `mid_file_corruption` is set along with the
/// 0-based row index and 1-based line number of the first bad line, and
/// resume must refuse (see journal_corruption_error()).
struct JournalData {
  bool header_ok = false;
  u64 fingerprint = 0;
  u64 jobs_declared = 0;
  std::vector<JournalRow> rows;
  usize dropped_lines = 0;
  bool mid_file_corruption = false;
  usize corrupt_row_index = 0;  ///< 0-based row index of the first bad line
  u64 corrupt_line = 0;         ///< 1-based line number of the first bad line
  std::string source_path;  ///< the file actually read ("" if none found)
};

/// Read a journal from an open stream. Returns false when the first line
/// is missing or is not a valid sealed header (out is then unspecified).
/// Never throws on corrupt content -- corruption only shrinks the usable
/// prefix and sets the corruption fields. Lines longer than
/// `limits.max_line_bytes` and rows beyond `limits.max_records` are
/// treated as corruption at that point.
bool read_journal(std::istream& is, const std::string& source,
                  JournalData& out,
                  const ParseLimits& limits = kDefaultLimits);

/// Load `<jsonl_path>.partial` if it holds a valid header, else
/// `<jsonl_path>` itself, else an empty JournalData (header_ok = false).
/// Never throws on corrupt content -- corruption only shrinks the usable
/// prefix.
[[nodiscard]] JournalData load_journal(const std::string& jsonl_path);

/// The structured error a resume must raise for a mid-file-corrupt
/// journal (Errc::kChecksum, row index + line number + path + hint), or
/// nullopt when the journal is clean or merely torn at the tail.
[[nodiscard]] std::optional<Error> journal_corruption_error(
    const JournalData& journal);

/// Reconstruct the outcome of a journaled `ok` row for `job`. The result
/// carries exact per-policy energy totals, cache/trace counters and CNT
/// stats as written (doubles round-trip bit-exactly), with each policy's
/// total in a single ledger category -- aggregate reports (savings, CSV
/// rows) are bit-identical to the original run; per-category breakdowns
/// are not available from a journal. Throws std::runtime_error on a row
/// missing required fields.
[[nodiscard]] JobOutcome outcome_from_row(const JournalRow& row,
                                          const Job& job);

}  // namespace cnt::exec
