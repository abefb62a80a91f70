#include "sim/stats_dump.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/workload_suite.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

// Structural JSON sanity: balanced braces/brackets outside strings.
void expect_balanced(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

SimResult one_result() {
  SimConfig cfg;
  return simulate(build_workload("zipf_kv", 0.05), cfg);
}

TEST(StatsDump, SingleResultIsWellFormed) {
  std::ostringstream os;
  dump_json(one_result(), os);
  const std::string s = os.str();
  expect_balanced(s);
  EXPECT_NE(s.find("\"workload\": \"zipf_kv\""), std::string::npos);
  EXPECT_NE(s.find("\"cnt_cache\""), std::string::npos);
  EXPECT_NE(s.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(s.find("\"data_read\""), std::string::npos);
  EXPECT_NE(s.find("\"windows_evaluated\""), std::string::npos);
  EXPECT_NE(s.find("\"savings\""), std::string::npos);
}

TEST(StatsDump, MultiResultHasSchemaAndAll) {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  std::vector<SimResult> results;
  results.push_back(simulate(build_workload("stream_copy", 0.05), cfg));
  results.push_back(simulate(build_workload("hash_join", 0.05), cfg));
  std::ostringstream os;
  dump_json(results, os);
  const std::string s = os.str();
  expect_balanced(s);
  EXPECT_NE(s.find("cnt-cache-results-v1"), std::string::npos);
  EXPECT_NE(s.find("stream_copy"), std::string::npos);
  EXPECT_NE(s.find("hash_join"), std::string::npos);
}

TEST(StatsDump, FileWriting) {
  const test::ScratchDir dir;
  const std::string path = dir / "stats.json";
  dump_json_file({one_result()}, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  expect_balanced(ss.str());
}

TEST(StatsDump, BadPathThrows) {
  EXPECT_THROW(dump_json_file({}, "/no/such/dir/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace cnt
