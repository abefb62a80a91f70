// JsonlSink: rows must land in job-submission order no matter what order
// workers complete in (the result-ordering determinism regression test),
// and each row must be one well-formed JSON object.
#include "exec/result_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/journal.hpp"
#include "scratch_dir.hpp"

namespace cnt::exec {
namespace {

JobOutcome make_outcome(u64 id, bool ok = true) {
  JobOutcome o;
  o.job.id = id;
  o.job.workload = "stream_copy";
  o.job.tag = "window=15";
  o.job.scale = 0.1;
  o.ok = ok;
  if (!ok) o.error = "synthetic failure";
  o.wall_ms = 1.5;
  o.result.workload = "stream_copy";
  return o;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

u64 job_id_of(const std::string& line) {
  const auto pos = line.find("\"job_id\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return static_cast<u64>(std::stoull(line.substr(pos + 9)));
}

TEST(JsonlSink, InOrderPushStreamsImmediately) {
  std::ostringstream os;
  JsonlSink sink(os);
  for (u64 i = 0; i < 4; ++i) {
    sink.push(make_outcome(i));
    EXPECT_EQ(sink.emitted(), i + 1);  // no buffering on the fast path
    EXPECT_EQ(sink.buffered(), 0u);
  }
  sink.finish();
  EXPECT_EQ(lines_of(os.str()).size(), 4u);
}

// The regression test for satellite "result-ordering determinism": feed
// completions in a scrambled order; rows must still come out 0,1,2,...
TEST(JsonlSink, OutOfOrderCompletionEmitsInSubmissionOrder) {
  std::ostringstream os;
  JsonlSink sink(os);
  std::vector<u64> order = {7, 2, 0, 5, 1, 3, 6, 4};
  for (const u64 id : order) sink.push(make_outcome(id));
  sink.finish();

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), order.size());
  for (u64 i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(job_id_of(lines[static_cast<usize>(i)]), i);
  }
}

TEST(JsonlSink, RandomizedOrderStaysSorted) {
  std::ostringstream os;
  JsonlSink sink(os);
  std::vector<u64> order(64);
  for (u64 i = 0; i < order.size(); ++i) order[static_cast<usize>(i)] = i;
  std::mt19937 rng(1234);
  std::shuffle(order.begin(), order.end(), rng);
  for (const u64 id : order) sink.push(make_outcome(id));
  sink.finish();

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), order.size());
  for (u64 i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(job_id_of(lines[static_cast<usize>(i)]), i);
  }
}

TEST(JsonlSink, RowShape) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.push(make_outcome(0));
  sink.push(make_outcome(1, /*ok=*/false));
  sink.finish();

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema\":\"cnt-exec-v2\""), std::string::npos);
    EXPECT_NE(line.find("\"workload\":\"stream_copy\""), std::string::npos);
    EXPECT_NE(line.find("\"key\":\""), std::string::npos);
    EXPECT_TRUE(check_sealed_line(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("synthetic failure"), std::string::npos);
}

TEST(JsonlSink, TimingFieldIsOptionalForByteComparisons) {
  std::ostringstream with_timing, without_a, without_b;
  {
    JsonlSink sink(with_timing, /*include_timing=*/true);
    sink.push(make_outcome(0));
    sink.finish();
  }
  {
    JsonlSink sink(without_a, /*include_timing=*/false);
    auto o = make_outcome(0);
    o.wall_ms = 1.0;
    sink.push(o);
    sink.finish();
  }
  {
    JsonlSink sink(without_b, /*include_timing=*/false);
    auto o = make_outcome(0);
    o.wall_ms = 99.0;  // different timing must not change the bytes
    sink.push(o);
    sink.finish();
  }
  EXPECT_NE(with_timing.str().find("wall_ms"), std::string::npos);
  EXPECT_EQ(without_a.str().find("wall_ms"), std::string::npos);
  EXPECT_EQ(without_a.str(), without_b.str());
}

TEST(JsonlSink, DuplicateIdThrows) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.push(make_outcome(0));
  EXPECT_THROW(sink.push(make_outcome(0)), std::logic_error);
  sink.push(make_outcome(2));  // buffered
  EXPECT_THROW(sink.push(make_outcome(2)), std::logic_error);
}

TEST(JsonlSink, FinishWithGapThrows) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.push(make_outcome(0));
  sink.push(make_outcome(2));  // id 1 never arrives
  EXPECT_EQ(sink.emitted(), 1u);
  EXPECT_EQ(sink.buffered(), 1u);
  EXPECT_THROW(sink.finish(), std::logic_error);
}

TEST(JsonlSink, DisabledSinkStillTracksOrdering) {
  JsonlSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.push(make_outcome(1));
  sink.push(make_outcome(0));
  sink.finish();
  EXPECT_EQ(sink.emitted(), 2u);
}

TEST(JsonlSink, FileSinkWrites) {
  const test::ScratchDir dir;
  const std::string path = dir / "sink.jsonl";
  {
    JsonlSink sink(path);
    EXPECT_TRUE(sink.enabled());
    EXPECT_EQ(sink.path(), path);
    sink.push(make_outcome(0));
    sink.finish();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"job_id\":0"), std::string::npos);
}

// The journal staging contract: rows stream into <path>.partial and only
// finish() publishes <path> via rename.
TEST(JsonlSink, FileSinkStagesInPartialUntilFinish) {
  const test::ScratchDir dir;
  const std::string path = dir / "stage.jsonl";
  {
    JsonlSink sink(path);
    sink.write_header(/*fingerprint=*/0xabcdu, /*jobs=*/1);
    sink.push(make_outcome(0));
    EXPECT_FALSE(std::ifstream(path).good());  // not published yet
    EXPECT_TRUE(std::ifstream(path + ".partial").good());
    sink.finish();
  }
  EXPECT_TRUE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".partial").good());  // renamed away
}

TEST(JsonlSink, CloseInterruptedKeepsPartialAndFlushesBufferedRows) {
  const test::ScratchDir dir;
  const std::string path = dir / "interrupt.jsonl";
  {
    JsonlSink sink(path);
    sink.write_header(/*fingerprint=*/1u, /*jobs=*/4);
    sink.push(make_outcome(0));
    sink.push(make_outcome(3));  // stuck behind the gap at id 1
    EXPECT_EQ(sink.buffered(), 1u);
    sink.close_interrupted();
  }
  EXPECT_FALSE(std::ifstream(path).good());  // never published
  std::ifstream in(path + ".partial");
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  // Header + row 0 + the out-of-order row 3: finished work survives.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"schema\":\"cnt-exec-journal-v1\""),
            std::string::npos);
  EXPECT_EQ(job_id_of(lines[1]), 0u);
  EXPECT_EQ(job_id_of(lines[2]), 3u);
}

TEST(JsonlSink, HeaderAfterRowThrows) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.push(make_outcome(0));
  EXPECT_THROW(sink.write_header(0, 1), std::logic_error);
}

}  // namespace
}  // namespace cnt::exec
