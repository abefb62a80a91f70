#include "sim/hierarchy_runner.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

class HierarchyRunnerTest : public ::testing::Test {
 protected:
  static Workload code() { return build_workload("ifetch", 0.1); }
  static Workload data() { return build_workload("zipf_kv", 0.1); }
  static HierarchyRunResult run(const HierarchyRunConfig& cfg) {
    const Workload mixed = interleave(code(), data());
    VectorTraceSource source(mixed.trace);
    return run_hierarchy(cfg, source, mixed.init);
  }
};

TEST_F(HierarchyRunnerTest, ProducesAllLevels) {
  HierarchyRunConfig cfg;
  const auto res = run(cfg);
  ASSERT_EQ(res.levels.size(), 3u);
  EXPECT_EQ(res.levels[0].level, "L1I");
  EXPECT_EQ(res.levels[1].level, "L1D");
  EXPECT_EQ(res.levels[2].level, "L2");
  EXPECT_GT(res.cache_total().in_joules(), 0.0);
  EXPECT_GT(res.dram_energy.in_joules(), 0.0);
  EXPECT_GT(res.level("L1I").stats.accesses, 0u);
  EXPECT_THROW((void)res.level("L3"), std::out_of_range);
}

TEST_F(HierarchyRunnerTest, AdaptiveL1BeatsBaselineL1) {
  HierarchyRunConfig on, off;
  off.cnt_at_l1i = off.cnt_at_l1d = false;
  const auto with = run(on);
  const auto without = run(off);
  // Same functional behaviour...
  EXPECT_EQ(with.level("L1D").stats.hits(),
            without.level("L1D").stats.hits());
  EXPECT_EQ(with.dram_energy.in_joules(), without.dram_energy.in_joules());
  // ...lower L1 energy with the adaptive policy.
  EXPECT_LT(with.level("L1D").ledger.total().in_joules(),
            without.level("L1D").ledger.total().in_joules());
  EXPECT_LT(with.level("L1I").ledger.total().in_joules(),
            without.level("L1I").ledger.total().in_joules());
  // L2 untouched in both configs.
  EXPECT_DOUBLE_EQ(with.level("L2").ledger.total().in_joules(),
                   without.level("L2").ledger.total().in_joules());
}

TEST_F(HierarchyRunnerTest, RunsWithoutL2) {
  HierarchyRunConfig cfg;
  cfg.hierarchy.enable_l2 = false;
  cfg.cnt_at_l2 = true;  // no L2 to place it at: ignored
  const auto res = run(cfg);
  ASSERT_EQ(res.levels.size(), 2u);
  EXPECT_EQ(res.levels[0].level, "L1I");
  EXPECT_EQ(res.levels[1].level, "L1D");
  EXPECT_THROW((void)res.level("L2"), std::out_of_range);
  EXPECT_GT(res.dram_energy.in_joules(), 0.0);
}

void expect_same_ledger(const EnergyLedger& a, const EnergyLedger& b,
                        const std::string& where) {
  for (usize c = 0; c < static_cast<usize>(EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<EnergyCategory>(c);
    EXPECT_EQ(a.get(cat).in_joules(), b.get(cat).in_joules())
        << where << " " << to_string(cat);
    EXPECT_EQ(a.count(cat), b.count(cat)) << where << " " << to_string(cat);
  }
}

// The observer property on the hierarchy: one replay with the baseline and
// CNT-Cache at every level yields, per level, exactly the ledgers of the
// single-policy runs that place CNT-Cache nowhere and everywhere.
TEST_F(HierarchyRunnerTest, OneReplayCarriesEveryPlacement) {
  HierarchyRunConfig none, all;
  none.cnt_at_l1i = none.cnt_at_l1d = none.cnt_at_l2 = false;
  all.cnt_at_l1i = all.cnt_at_l1d = all.cnt_at_l2 = true;
  const auto base_run = run(none);
  const auto cnt_run = run(all);

  const Workload mixed = interleave(code(), data());
  VectorTraceSource source(mixed.trace);
  const HierarchySimResult one =
      simulate_hierarchy(source, mixed.init, hierarchy_levels(all));

  ASSERT_EQ(one.levels.size(), 3u);
  for (usize i = 0; i < one.levels.size(); ++i) {
    const SimResult& l = one.levels[i];
    const std::string name = base_run.levels[i].level;
    ASSERT_EQ(l.policies.size(), 2u);
    EXPECT_EQ(l.policies[0].name, kPolicyBaseline);
    EXPECT_EQ(l.policies[1].name, kPolicyCnt);
    EXPECT_TRUE(l.policies[1].has_cnt_stats);
    expect_same_ledger(l.policies[0].ledger, base_run.levels[i].ledger, name);
    expect_same_ledger(l.policies[1].ledger, cnt_run.levels[i].ledger, name);
    EXPECT_EQ(l.cache_stats.accesses, cnt_run.levels[i].stats.accesses);
    EXPECT_EQ(l.cache_stats.hits(), cnt_run.levels[i].stats.hits());
    EXPECT_EQ(l.cache_stats.writebacks, cnt_run.levels[i].stats.writebacks);
  }
  EXPECT_EQ(DramParams{}.traffic_energy(one.memory).in_joules(),
            cnt_run.dram_energy.in_joules());
  EXPECT_EQ(base_run.dram_energy.in_joules(), cnt_run.dram_energy.in_joules());
}

TEST(SimulateHierarchy, RefusesFaultsAndLevelCounts) {
  const Trace empty;
  VectorTraceSource source(empty);
  std::vector<LevelSetup> levels = hierarchy_levels(HierarchyRunConfig{});
  levels.pop_back();
  levels.pop_back();
  EXPECT_THROW((void)simulate_hierarchy(source, {}, levels),
               std::invalid_argument);
  levels = hierarchy_levels(HierarchyRunConfig{});
  levels[1].cfg.fault.transient_per_read = 1e-6;
  ASSERT_TRUE(levels[1].cfg.fault.enabled());
  EXPECT_THROW((void)simulate_hierarchy(source, {}, levels),
               std::invalid_argument);
}

TEST_F(HierarchyRunnerTest, DeterministicAcrossRuns) {
  HierarchyRunConfig cfg;
  const auto a = run(cfg);
  const auto b = run(cfg);
  EXPECT_DOUBLE_EQ(a.cache_total().in_joules(), b.cache_total().in_joules());
}

}  // namespace
}  // namespace cnt
