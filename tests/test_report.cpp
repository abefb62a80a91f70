#include "sim/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

std::vector<SimResult> two_results() {
  SimConfig cfg;
  cfg.with_cmos = false;
  std::vector<SimResult> out;
  out.push_back(simulate(build_workload("stream_copy", 0.05), cfg));
  out.push_back(simulate(build_workload("zipf_kv", 0.05), cfg));
  return out;
}

TEST(Report, SavingsTableHasOneRowPerWorkloadPlusMean) {
  const auto results = two_results();
  const std::string table = savings_table(results);
  usize lines = 0;
  for (const char c : table) lines += c == '\n';
  // header + separator + 2 workloads + mean.
  EXPECT_EQ(lines, 5u);
}

TEST(Report, SavingsTableHandlesMissingPolicies) {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  std::vector<SimResult> results;
  results.push_back(simulate(build_workload("stream_copy", 0.05), cfg));
  const std::string table = savings_table(results);
  // Absent policies render as '-' rather than crashing.
  EXPECT_NE(table.find("-"), std::string::npos);
}

TEST(Report, BreakdownSkipsAllZeroCategories) {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  const auto res = simulate(build_workload("stream_copy", 0.05), cfg);
  const std::string table = breakdown_table(res);
  // No policy in this run uses flip-aware or CMOS-only paths; every listed
  // row must have at least one nonzero column, so a category like "fifo"
  // appears only if the CNT policy actually used its FIFO.
  const bool fifo_used =
      res.find(kPolicyCnt)->ledger.get(EnergyCategory::kFifo).in_joules() >
      0.0;
  EXPECT_EQ(table.find("fifo") != std::string::npos, fifo_used);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(Report, ResultsDirHonorsEnvOverride) {
  const std::string dir = ::testing::TempDir() + "cnt_results_env_test";
  ASSERT_EQ(setenv("CNT_RESULTS_DIR", dir.c_str(), 1), 0);
  const std::string got = results_dir();
  EXPECT_EQ(got, dir);
  EXPECT_TRUE(std::filesystem::exists(dir));
  unsetenv("CNT_RESULTS_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Report, MeanSavingSupportsAlternatePolicies) {
  const auto results = two_results();
  const double vs_static = mean_saving(results, kPolicyStatic);
  const double vs_ideal = mean_saving(results, kPolicyIdeal);
  EXPECT_GE(vs_ideal, vs_static - 1e-12);  // oracle saves at least as much
}

}  // namespace
}  // namespace cnt
