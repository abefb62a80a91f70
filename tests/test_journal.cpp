// Journal layer: stable job keys and sweep fingerprints, CRC-32 line
// seals, header round-trips, torn-tail truncation on load, and exact
// outcome reconstruction from journaled rows.
#include "exec/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "exec/engine.hpp"
#include "exec/result_sink.hpp"
#include "scratch_dir.hpp"

namespace cnt::exec {
namespace {

constexpr double kScale = 0.02;

Job make_job(u64 id, const std::string& workload = "stream_copy") {
  Job j;
  j.id = id;
  j.workload = workload;
  j.tag = "window=7";
  j.scale = kScale;
  j.config.cnt.window = 7;
  j.config.with_cmos = j.config.with_static = j.config.with_ideal = false;
  return j;
}

TEST(Hash, Crc32KnownAnswer) {
  // The IEEE 802.3 check value; any table/polynomial mistake breaks it.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Hash, HexRoundTrip) {
  EXPECT_EQ(hex_u64(0), "0000000000000000");
  EXPECT_EQ(hex_u64(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(hex_u32(0xCBF43926u), "cbf43926");
  u64 v64 = 0;
  ASSERT_TRUE(parse_hex_u64("deadbeefcafef00d", v64));
  EXPECT_EQ(v64, 0xdeadbeefcafef00dull);
  u32 v32 = 0;
  ASSERT_TRUE(parse_hex_u32("cbf43926", v32));
  EXPECT_EQ(v32, 0xCBF43926u);
  EXPECT_FALSE(parse_hex_u64("deadbeef", v64));       // wrong length
  EXPECT_FALSE(parse_hex_u32("cbf4392g", v32));       // non-hex digit
}

TEST(Hash, Fnv1a64LengthPrefixDisambiguates) {
  Fnv1a64 a, b;
  a.update(std::string_view("ab")).update(std::string_view("c"));
  b.update(std::string_view("a")).update(std::string_view("bc"));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Journal, JobKeyIgnoresSubmissionId) {
  Job a = make_job(0);
  Job b = make_job(17);
  EXPECT_EQ(job_key(a), job_key(b));
}

TEST(Journal, JobKeyCoversIdentityFields) {
  const u64 base = job_key(make_job(0));

  Job j = make_job(0, "zipf_kv");
  EXPECT_NE(job_key(j), base);

  j = make_job(0);
  j.tag = "window=15";
  EXPECT_NE(job_key(j), base);

  j = make_job(0);
  j.scale = kScale * 2;
  EXPECT_NE(job_key(j), base);

  j = make_job(0);
  j.seed_offset = 1;
  EXPECT_NE(job_key(j), base);

  j = make_job(0);
  j.config.cnt.window = 15;
  EXPECT_NE(job_key(j), base);

  j = make_job(0);
  j.config.cache.size_bytes *= 2;
  EXPECT_NE(job_key(j), base);
}

TEST(Journal, SweepFingerprintIsOrderSensitive) {
  std::vector<Job> ab = {make_job(0, "stream_copy"), make_job(1, "zipf_kv")};
  std::vector<Job> ba = {make_job(0, "zipf_kv"), make_job(1, "stream_copy")};
  std::vector<Job> a = {make_job(0, "stream_copy")};
  EXPECT_NE(sweep_fingerprint(ab), sweep_fingerprint(ba));
  EXPECT_NE(sweep_fingerprint(ab), sweep_fingerprint(a));
  EXPECT_EQ(sweep_fingerprint(ab), sweep_fingerprint(ab));
}

TEST(Journal, SealAndCheckLine) {
  const std::string sealed = seal_line("{\"a\":1}");
  EXPECT_TRUE(check_sealed_line(sealed));
  EXPECT_EQ(sealed.substr(0, 7), "{\"a\":1,");
  EXPECT_EQ(sealed.back(), '}');

  // Any single-byte corruption must be caught.
  for (usize i = 0; i < sealed.size(); ++i) {
    std::string corrupt = sealed;
    corrupt[i] = corrupt[i] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(check_sealed_line(corrupt)) << "flip at byte " << i;
  }
  // ... and so must truncation (a torn write).
  for (usize cut = 1; cut < sealed.size(); ++cut) {
    EXPECT_FALSE(check_sealed_line(sealed.substr(0, sealed.size() - cut)));
  }
  EXPECT_FALSE(check_sealed_line("{\"a\":1}"));  // never sealed
}

TEST(Journal, HeaderLineIsSealedAndParseable) {
  const std::string line = make_header_line(0x1234abcdu, 42);
  EXPECT_TRUE(check_sealed_line(line));
  const JsonValue v = parse_json(line);
  EXPECT_EQ(v.at("schema").as_string(), kHeaderSchema);
  EXPECT_EQ(v.at("fingerprint").as_string(), hex_u64(0x1234abcdu));
  EXPECT_EQ(v.at("jobs").as_u64(), 42u);
}

TEST(Journal, LoadMissingFileIsEmpty) {
  const test::ScratchDir dir;
  const JournalData data = load_journal(dir / "none.jsonl");
  EXPECT_FALSE(data.header_ok);
  EXPECT_TRUE(data.rows.empty());
  EXPECT_TRUE(data.source_path.empty());
}

TEST(Journal, LoadRejectsHeaderlessFile) {
  const test::ScratchDir dir;
  const std::string path = dir / "headerless.jsonl";
  {
    std::ofstream out(path);  // cnt-lint: io-ok fabricating raw journal bytes
    JobOutcome o = run_job(make_job(0));
    write_jsonl_row(o, out, /*include_timing=*/false);
    out << '\n';
  }
  const JournalData data = load_journal(path);
  EXPECT_FALSE(data.header_ok);
  EXPECT_TRUE(data.rows.empty());
}

TEST(Journal, RoundTripThroughSinkAndLoad) {
  const test::ScratchDir dir;
  const std::string path = dir / "roundtrip.jsonl";
  const Job job0 = make_job(0, "stream_copy");
  const Job job1 = make_job(1, "zipf_kv");
  {
    JsonlSink sink(path, /*include_timing=*/false);
    sink.write_header(0xfeedu, 2);
    sink.push(run_job(job0));
    sink.push(run_job(job1));
    sink.finish();
  }
  const JournalData data = load_journal(path);
  ASSERT_TRUE(data.header_ok);
  EXPECT_EQ(data.source_path, path);
  EXPECT_EQ(data.fingerprint, 0xfeedu);
  EXPECT_EQ(data.jobs_declared, 2u);
  EXPECT_EQ(data.dropped_lines, 0u);
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_EQ(data.rows[0].job_id, 0u);
  EXPECT_EQ(data.rows[0].key, job_key(job0));
  EXPECT_EQ(data.rows[1].job_id, 1u);
  EXPECT_EQ(data.rows[1].key, job_key(job1));
  EXPECT_TRUE(data.rows[0].ok);
}

TEST(Journal, TornTailIsTruncated) {
  const test::ScratchDir dir;
  const std::string path = dir / "torn.jsonl";
  std::ostringstream row0, row1;
  write_jsonl_row(run_job(make_job(0)), row0, false);
  write_jsonl_row(run_job(make_job(1, "zipf_kv")), row1, false);
  {
    std::ofstream out(path);  // cnt-lint: io-ok fabricating raw journal bytes
    out << make_header_line(1, 2) << '\n';
    out << row0.str() << '\n';
    // A torn write: the last row lost its tail when the process died.
    out << row1.str().substr(0, row1.str().size() / 2);
  }
  const JournalData data = load_journal(path);
  ASSERT_TRUE(data.header_ok);
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_EQ(data.rows[0].job_id, 0u);
  EXPECT_EQ(data.dropped_lines, 1u);
  // A torn tail is recoverable; it must NOT be classified as mid-file
  // corruption and must not produce a refusal error.
  EXPECT_FALSE(data.mid_file_corruption);
  EXPECT_FALSE(journal_corruption_error(data).has_value());
}

TEST(Journal, CorruptionStopsTheUsablePrefix) {
  const test::ScratchDir dir;
  const std::string path = dir / "corrupt.jsonl";
  std::ostringstream row0, row1, row2;
  write_jsonl_row(run_job(make_job(0)), row0, false);
  write_jsonl_row(run_job(make_job(1, "zipf_kv")), row1, false);
  write_jsonl_row(run_job(make_job(2, "pointer_chase")), row2, false);
  std::string bad = row1.str();
  bad[bad.find("zipf_kv") + 1] = 'X';  // bit rot inside row 1
  {
    std::ofstream out(path);  // cnt-lint: io-ok fabricating raw journal bytes
    out << make_header_line(1, 3) << '\n'
        << row0.str() << '\n'
        << bad << '\n'
        << row2.str() << '\n';
  }
  const JournalData data = load_journal(path);
  ASSERT_TRUE(data.header_ok);
  // Row 2 is intact but unreachable: everything after the first bad line
  // is discarded so resume re-runs it rather than trusting the tail.
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_EQ(data.dropped_lines, 2u);
  // The sealed row AFTER the bad one proves this is damage inside the
  // file, not a torn tail: the loader flags it with the exact location.
  EXPECT_TRUE(data.mid_file_corruption);
  EXPECT_EQ(data.corrupt_row_index, 1u);  // 0-based: the second row
  EXPECT_EQ(data.corrupt_line, 3u);       // 1-based: header, row0, bad
}

TEST(Journal, MidFileCorruptionYieldsRefusalError) {
  const test::ScratchDir dir;
  const std::string path = dir / "refusal.jsonl";
  std::ostringstream row0, row1;
  write_jsonl_row(run_job(make_job(0)), row0, false);
  write_jsonl_row(run_job(make_job(1, "zipf_kv")), row1, false);
  std::string bad = row0.str();
  bad[bad.find("job_id")] = 'X';  // bit rot inside row 0
  {
    std::ofstream out(path);  // cnt-lint: io-ok fabricating raw journal bytes
    out << make_header_line(1, 2) << '\n'
        << bad << '\n'
        << row1.str() << '\n';
  }
  const JournalData data = load_journal(path);
  ASSERT_TRUE(data.header_ok);
  ASSERT_TRUE(data.mid_file_corruption);
  const auto err = journal_corruption_error(data);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->info().code, Errc::kChecksum);
  EXPECT_EQ(err->info().source, path);
  EXPECT_EQ(err->info().line, 2u);
  EXPECT_NE(err->info().message.find("row 0"), std::string::npos);
  EXPECT_NE(err->info().hint.find("--resume"), std::string::npos);
}

TEST(Journal, PartialIsPreferredOverFinal) {
  const test::ScratchDir dir;
  const std::string path = dir / "partial.jsonl";
  std::ostringstream row;
  write_jsonl_row(run_job(make_job(0)), row, false);
  {
    std::ofstream final_file(path);  // cnt-lint: io-ok fabricating raw journal bytes
    final_file << make_header_line(7, 1) << '\n';
  }
  {
    std::ofstream partial(path + ".partial");  // cnt-lint: io-ok fabricating raw journal bytes
    partial << make_header_line(8, 1) << '\n' << row.str() << '\n';
  }
  const JournalData data = load_journal(path);
  ASSERT_TRUE(data.header_ok);
  EXPECT_EQ(data.source_path, path + ".partial");
  EXPECT_EQ(data.fingerprint, 8u);
  EXPECT_EQ(data.rows.size(), 1u);
}

// The load-bearing resume property: a reconstructed outcome reproduces
// every aggregate the benches derive from a SimResult, bit-for-bit.
TEST(Journal, OutcomeReconstructionIsExact) {
  const test::ScratchDir dir;
  const Job job = make_job(0);
  const JobOutcome original = run_job(job);
  ASSERT_TRUE(original.ok);

  std::ostringstream os;
  write_jsonl_row(original, os, /*include_timing=*/false);
  JournalRow row;
  {
    const std::string path = dir / "exact.jsonl";
    std::ofstream out(path);  // cnt-lint: io-ok fabricating raw journal bytes
    out << make_header_line(1, 1) << '\n' << os.str() << '\n';
    out.close();
    JournalData data = load_journal(path);
    ASSERT_EQ(data.rows.size(), 1u);
    row = std::move(data.rows[0]);
  }

  const JobOutcome rebuilt = outcome_from_row(row, job);
  EXPECT_TRUE(rebuilt.ok);
  EXPECT_TRUE(rebuilt.resumed);
  EXPECT_FALSE(original.resumed);

  const SimResult& a = original.result;
  const SimResult& b = rebuilt.result;
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (usize i = 0; i < a.policies.size(); ++i) {
    EXPECT_EQ(a.policies[i].name, b.policies[i].name);
    // Bit-identical energy totals, not approximately equal ones.
    EXPECT_EQ(a.policies[i].total().in_joules(),
              b.policies[i].total().in_joules());
  }
  EXPECT_EQ(a.saving(kPolicyCnt), b.saving(kPolicyCnt));
  EXPECT_EQ(a.cache_stats.accesses, b.cache_stats.accesses);
  EXPECT_EQ(a.cache_stats.hits(), b.cache_stats.hits());
  EXPECT_EQ(a.cache_stats.misses(), b.cache_stats.misses());
  EXPECT_EQ(a.cache_stats.hit_rate(), b.cache_stats.hit_rate());
  EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks);
  EXPECT_EQ(a.trace_stats.accesses, b.trace_stats.accesses);
  EXPECT_EQ(a.trace_stats.write_fraction, b.trace_stats.write_fraction);

  const PolicyResult* ac = a.find(kPolicyCnt);
  const PolicyResult* bc = b.find(kPolicyCnt);
  ASSERT_NE(ac, nullptr);
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(ac->cnt_stats.windows_evaluated, bc->cnt_stats.windows_evaluated);
  EXPECT_EQ(ac->cnt_stats.reencodes_applied, bc->cnt_stats.reencodes_applied);
  EXPECT_EQ(ac->cnt_stats.fill_inversions, bc->cnt_stats.fill_inversions);
  EXPECT_EQ(ac->queue_stats.pushed, bc->queue_stats.pushed);
  EXPECT_EQ(ac->queue_stats.dropped_full, bc->queue_stats.dropped_full);

  // Re-serializing the reconstruction yields the original bytes: replay
  // and recomputation are indistinguishable on disk.
  std::ostringstream os2;
  write_jsonl_row(rebuilt, os2, /*include_timing=*/false);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(Journal, FailedRowRoundTrips) {
  const test::ScratchDir dir;
  const Job job = make_job(0, "no_such_workload");
  const JobOutcome original = run_job(job);
  ASSERT_FALSE(original.ok);

  std::ostringstream os;
  write_jsonl_row(original, os, false);
  const std::string path = dir / "failed.jsonl";
  {
    std::ofstream out(path);  // cnt-lint: io-ok fabricating raw journal bytes
    out << make_header_line(1, 1) << '\n' << os.str() << '\n';
  }
  JournalData data = load_journal(path);
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_FALSE(data.rows[0].ok);
  const JobOutcome rebuilt = outcome_from_row(data.rows[0], job);
  EXPECT_FALSE(rebuilt.ok);
  EXPECT_EQ(rebuilt.error, original.error);
}

}  // namespace
}  // namespace cnt::exec
