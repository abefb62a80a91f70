#include "exec/journal.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "sim/config_io.hpp"

namespace cnt::exec {

namespace {

// The sealed-line suffix is `,"crc":"xxxxxxxx"}` -- 18 bytes.
constexpr usize kSealSuffixLen = 18;

}  // namespace

u64 job_key(const Job& job) noexcept {
  Fnv1a64 h;
  h.update(std::string_view("cnt-job-key-v1"));
  h.update(job.workload);
  h.update(job.tag);
  h.update(job.scale);
  h.update(job.seed_offset);
  h.update(config_fingerprint(job.config));
  return h.digest();
}

u64 sweep_fingerprint(const std::vector<Job>& jobs) noexcept {
  Fnv1a64 h;
  h.update(std::string_view("cnt-sweep-v1"));
  h.update(static_cast<u64>(jobs.size()));
  for (const Job& job : jobs) h.update(job_key(job));
  return h.digest();
}

std::string seal_line(std::string payload) {
  if (payload.size() < 3 || payload.front() != '{' ||
      payload.back() != '}') {
    throw Error(Errc::kInternal, "seal_line: payload is not a JSON object")
        .hint("seal_line seals exactly one serialized '{...}' object");
  }
  payload.pop_back();  // the CRC covers every byte before its own field
  const u32 c = crc32(payload);
  payload += ",\"crc\":\"" + hex_u32(c) + "\"}";
  return payload;
}

bool check_sealed_line(std::string_view line) noexcept {
  if (line.size() < kSealSuffixLen + 2) return false;
  const usize cut = line.size() - kSealSuffixLen;
  if (line.substr(cut, 8) != ",\"crc\":\"") return false;
  if (line.substr(line.size() - 2) != "\"}") return false;
  u32 stored = 0;
  if (!parse_hex_u32(line.substr(cut + 8, 8), stored)) return false;
  return crc32(line.substr(0, cut)) == stored;
}

std::string make_header_line(u64 fingerprint, u64 jobs) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("schema", kHeaderSchema);
    w.kv("fingerprint", hex_u64(fingerprint));
    w.kv("jobs", jobs);
    w.end_object();
  }
  return seal_line(os.str());
}

namespace {

/// Strip the seal suffix so the remaining text parses as the original
/// payload plus the crc field (the sealed line is itself valid JSON, so
/// we can just parse the whole line).
bool parse_header(const std::string& line, JournalData& out) {
  if (!check_sealed_line(line)) return false;
  try {
    const JsonValue v = parse_json(line);
    if (v.at("schema").as_string() != kHeaderSchema) return false;
    if (!parse_hex_u64(v.at("fingerprint").as_string(), out.fingerprint)) {
      return false;
    }
    out.jobs_declared = v.at("jobs").as_u64();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool parse_row(std::string line, JournalRow& row) {
  if (!check_sealed_line(line)) return false;
  try {
    JsonValue v = parse_json(line);
    if (v.at("schema").as_string() != kRowSchema) return false;
    row.job_id = v.at("job_id").as_u64();
    if (!parse_hex_u64(v.at("key").as_string(), row.key)) return false;
    row.ok = v.at("ok").as_bool();
    row.fields = std::move(v);
  } catch (const std::exception&) {
    return false;
  }
  row.text = std::move(line);
  return true;
}

bool load_from(const std::string& path, JournalData& out) {
  std::ifstream in(path);
  if (!in) return false;
  if (!read_journal(in, path, out)) return false;
  out.source_path = path;
  return true;
}

}  // namespace

bool read_journal(std::istream& is, const std::string& source,
                  JournalData& out, const ParseLimits& limits) {
  std::string line;
  if (bounded_getline(is, line, limits.max_line_bytes) != LineStatus::kOk) {
    return false;
  }
  if (!parse_header(line, out)) return false;
  out.header_ok = true;
  out.source_path = source;
  u64 line_no = 1;  // the header was line 1
  for (;;) {
    const LineStatus status =
        bounded_getline(is, line, limits.max_line_bytes);
    if (status == LineStatus::kEof) break;
    ++line_no;
    if (status == LineStatus::kOk && line.empty()) continue;
    const bool over_limit = status == LineStatus::kTooLong ||
                            out.rows.size() >= limits.max_records;
    JournalRow row;
    if (over_limit || !parse_row(std::move(line), row)) {
      // First bad line. A torn tail (crash mid-append) is recoverable by
      // truncation; a bad row *followed by more sealed rows* is mid-file
      // corruption -- the prefix beyond it must not be replayed.
      out.corrupt_line = line_no;
      out.corrupt_row_index = out.rows.size();
      ++out.dropped_lines;
      for (;;) {
        const LineStatus rest =
            bounded_getline(is, line, limits.max_line_bytes);
        if (rest == LineStatus::kEof) break;
        ++out.dropped_lines;
        if (rest == LineStatus::kOk && check_sealed_line(line)) {
          out.mid_file_corruption = true;
        }
      }
      break;
    }
    out.rows.push_back(std::move(row));
  }
  return true;
}

JournalData load_journal(const std::string& jsonl_path) {
  JournalData data;
  if (load_from(jsonl_path + ".partial", data)) return data;
  data = JournalData{};
  (void)load_from(jsonl_path, data);
  return data;
}

std::optional<Error> journal_corruption_error(const JournalData& journal) {
  if (!journal.header_ok || !journal.mid_file_corruption) {
    return std::nullopt;
  }
  return Error(Errc::kChecksum,
               "journal row " + std::to_string(journal.corrupt_row_index) +
                   " fails its CRC seal with intact rows after it "
                   "(mid-file corruption, not a torn tail)")
      .at(journal.source_path, journal.corrupt_line)
      .hint("refusing to replay a journal with a damaged interior; delete "
            "it (or restore it from backup) and rerun without --resume");
}

JobOutcome outcome_from_row(const JournalRow& row, const Job& job) {
  JobOutcome out;
  out.job = job;
  out.resumed = true;
  const JsonValue& v = row.fields;
  out.ok = v.at("ok").as_bool();
  if (const JsonValue* wall = v.find("wall_ms")) {
    out.wall_ms = wall->as_double();
  }
  if (!out.ok) {
    out.error = v.at("error").as_string();
    return out;
  }

  SimResult& r = out.result;
  r.workload = job.workload;
  const JsonValue& trace = v.at("trace");
  r.trace_stats.accesses = static_cast<usize>(trace.at("accesses").as_u64());
  r.trace_stats.write_fraction = trace.at("write_fraction").as_double();
  r.trace_stats.footprint_kib = trace.at("footprint_kib").as_double();

  // The row stores hit/miss aggregates; folding them into the read-side
  // counters preserves hits()/misses()/hit_rate() exactly.
  const JsonValue& cache = v.at("cache");
  r.cache_stats.accesses = cache.at("accesses").as_u64();
  r.cache_stats.read_hits = cache.at("hits").as_u64();
  r.cache_stats.read_misses = cache.at("misses").as_u64();
  r.cache_stats.writebacks = cache.at("writebacks").as_u64();

  // One ledger category per policy holding the journaled total: totals,
  // savings and CSV aggregates are bit-identical; per-category breakdowns
  // are not reconstructible from a journal.
  for (const auto& [name, joules] : v.at("energy_j").as_object()) {
    PolicyResult pr;
    pr.name = name;
    pr.ledger.charge(EnergyCategory::kDataRead,
                     Energy::joules(joules.as_double()));
    r.policies.push_back(std::move(pr));
  }

  if (const JsonValue* fault = v.find("fault")) {
    r.has_fault = true;
    FaultStats& fs = r.fault_stats;
    fs.stuck_data_cells = fault->at("stuck_data_cells").as_u64();
    fs.stuck_dir_cells = fault->at("stuck_dir_cells").as_u64();
    fs.transient_data_flips = fault->at("transient_data_flips").as_u64();
    fs.transient_dir_flips = fault->at("transient_dir_flips").as_u64();
    fs.faulty_reads = fault->at("faulty_reads").as_u64();
    fs.corrected_bits = fault->at("corrected_bits").as_u64();
    fs.detected_events = fault->at("detected_events").as_u64();
    fs.silent_bits = fault->at("silent_bits").as_u64();
    fs.dir_flips = fault->at("dir_flips").as_u64();
    fs.dir_corrected_bits = fault->at("dir_corrected_bits").as_u64();
    fs.dir_detected_events = fault->at("dir_detected_events").as_u64();
    fs.dir_silent_bits = fault->at("dir_silent_bits").as_u64();
  }

  if (const JsonValue* cnt = v.find("cnt")) {
    for (auto& pr : r.policies) {
      if (pr.name != kPolicyCnt) continue;
      pr.has_cnt_stats = true;
      pr.cnt_stats.windows_evaluated = cnt->at("windows_evaluated").as_u64();
      pr.cnt_stats.reencodes_applied = cnt->at("reencodes_applied").as_u64();
      pr.cnt_stats.fill_inversions = cnt->at("fill_inversions").as_u64();
      pr.queue_stats.pushed = cnt->at("fifo_pushed").as_u64();
      pr.queue_stats.dropped_full = cnt->at("fifo_drops").as_u64();
      break;
    }
  }
  return out;
}

}  // namespace cnt::exec
