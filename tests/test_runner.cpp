#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/report.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

TEST(SimConfig, DefaultsMatchPaperSetup) {
  const SimConfig cfg;
  EXPECT_EQ(cfg.cache.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.cache.ways, 4u);
  EXPECT_EQ(cfg.cache.line_bytes, 64u);
  EXPECT_EQ(cfg.cnt.window, 15u);  // the authors' default checkpoint
  EXPECT_EQ(cfg.tech.name, "CNFET-16");
  EXPECT_EQ(cfg.cmos_tech.name, "CMOS-16");
}

TEST(Simulate, ProducesAllPolicies) {
  const SimConfig cfg;
  const auto res = simulate(build_workload("zipf_kv", 0.1), cfg);
  EXPECT_EQ(res.workload, "zipf_kv");
  EXPECT_NE(res.find(kPolicyCmos), nullptr);
  EXPECT_NE(res.find(kPolicyBaseline), nullptr);
  EXPECT_NE(res.find(kPolicyStatic), nullptr);
  EXPECT_NE(res.find(kPolicyCnt), nullptr);
  EXPECT_NE(res.find(kPolicyIdeal), nullptr);
  EXPECT_EQ(res.find("nope"), nullptr);
  EXPECT_THROW((void)res.energy("nope"), std::out_of_range);
}

TEST(Simulate, OptionalPoliciesCanBeDisabled) {
  SimConfig cfg;
  cfg.with_cmos = false;
  cfg.with_static = false;
  cfg.with_ideal = false;
  const auto res = simulate(build_workload("stream_copy", 0.1), cfg);
  EXPECT_EQ(res.policies.size(), 2u);
  EXPECT_NE(res.find(kPolicyBaseline), nullptr);
  EXPECT_NE(res.find(kPolicyCnt), nullptr);
}

// The policy refuses what its predictor cannot run with, even when the
// config never went through sim_config_from.
TEST(Simulate, InvalidCntConfigIsRefusedNamingTheKey) {
  const Workload w = build_workload("stream_copy", 0.05);
  SimConfig zero_window;
  zero_window.cnt.window = 0;
  SimConfig negative_margin;
  negative_margin.cnt.delta_t = -5.0;
  for (const auto& [cfg, key] :
       {std::pair{zero_window, "cnt.window"},
        std::pair{negative_margin, "cnt.delta_t"}}) {
    try {
      (void)simulate(w, cfg);
      ADD_FAILURE() << key << " accepted";
    } catch (const ValueError& e) {
      EXPECT_EQ(e.info().code, Errc::kRange) << key;
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Simulate, CacheStatsPopulated) {
  const SimConfig cfg;
  const auto res = simulate(build_workload("pointer_chase", 0.1), cfg);
  EXPECT_GT(res.cache_stats.accesses, 0u);
  EXPECT_GT(res.cache_stats.hits(), 0u);
  EXPECT_GT(res.trace_stats.accesses, 0u);
}

TEST(Simulate, InvariantOrderings) {
  // For every workload at small scale: ideal <= cnt reasonably bounded,
  // and CMOS > CNFET baseline ("power-hungry CMOS").
  const SimConfig cfg;
  for (const auto& name : {"zipf_kv", "text_tokenize", "stream_copy"}) {
    const auto res = simulate(build_workload(name, 0.1), cfg);
    EXPECT_LT(res.energy(kPolicyIdeal).in_joules(),
              res.energy(kPolicyBaseline).in_joules())
        << name;
    EXPECT_GT(res.energy(kPolicyCmos).in_joules(),
              res.energy(kPolicyBaseline).in_joules())
        << name;
    // CNT never does worse than 10% over baseline on any suite workload.
    EXPECT_LT(res.energy(kPolicyCnt).in_joules(),
              1.10 * res.energy(kPolicyBaseline).in_joules())
        << name;
  }
}

TEST(Simulate, SavingHelper) {
  const SimConfig cfg;
  const auto res = simulate(build_workload("zipf_kv", 0.1), cfg);
  const double s = res.saving(kPolicyCnt);
  EXPECT_GT(s, -0.2);
  EXPECT_LT(s, 1.0);
  EXPECT_DOUBLE_EQ(res.saving(kPolicyBaseline), 0.0);  // self vs self
}

TEST(Simulate, DeterministicAcrossRuns) {
  const SimConfig cfg;
  const auto a = simulate(build_workload("hash_join", 0.1), cfg);
  const auto b = simulate(build_workload("hash_join", 0.1), cfg);
  EXPECT_DOUBLE_EQ(a.energy(kPolicyCnt).in_joules(),
                   b.energy(kPolicyCnt).in_joules());
  EXPECT_DOUBLE_EQ(a.energy(kPolicyBaseline).in_joules(),
                   b.energy(kPolicyBaseline).in_joules());
}

TEST(Report, SavingsTableRendersAllWorkloads) {
  SimConfig cfg;
  cfg.with_cmos = false;
  std::vector<SimResult> results;
  results.push_back(simulate(build_workload("stream_copy", 0.05), cfg));
  results.push_back(simulate(build_workload("zipf_kv", 0.05), cfg));
  const std::string table = savings_table(results);
  EXPECT_NE(table.find("stream_copy"), std::string::npos);
  EXPECT_NE(table.find("zipf_kv"), std::string::npos);
  EXPECT_NE(table.find("mean"), std::string::npos);
}

TEST(Report, BreakdownTableShowsCntCategories) {
  const SimConfig cfg;
  const auto res = simulate(build_workload("zipf_kv", 0.05), cfg);
  const std::string table = breakdown_table(res);
  EXPECT_NE(table.find("data_read"), std::string::npos);
  EXPECT_NE(table.find("encoder_logic"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(Report, MeanSavingMatchesManualAverage) {
  SimConfig cfg;
  cfg.with_cmos = false;
  cfg.with_static = false;
  cfg.with_ideal = false;
  std::vector<SimResult> results;
  results.push_back(simulate(build_workload("stream_copy", 0.05), cfg));
  results.push_back(simulate(build_workload("zipf_kv", 0.05), cfg));
  const double manual =
      (results[0].saving(kPolicyCnt) + results[1].saving(kPolicyCnt)) / 2.0;
  EXPECT_NEAR(mean_saving(results), manual, 1e-12);
}

}  // namespace
}  // namespace cnt
