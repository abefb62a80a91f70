// End-to-end fault plumbing: FaultConfig -> simulate() -> SimResult.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

SimConfig two_policy_config() {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  return cfg;
}

TEST(FaultRunner, SimulateRejectsOutOfRangeKnobs) {
  // Configs built in code bypass the INI parser; simulate() validates too.
  for (const double p : {-0.1, 1.5, std::nan("")}) {
    SimConfig cfg = two_policy_config();
    cfg.fault.transient_per_read = p;
    EXPECT_THROW((void)simulate(build_workload("zipf_kv", 0.05), cfg),
                 ValueError)
        << p;
  }
}

TEST(FaultRunner, DisabledCampaignLeavesResultUntouched) {
  const SimConfig cfg = two_policy_config();
  const auto plain = simulate(build_workload("zipf_kv", 0.05), cfg);
  EXPECT_FALSE(plain.has_fault);
  EXPECT_FALSE(plain.fault_stats.any_faults());

  // Run again: a default FaultConfig must not perturb energies at all.
  SimConfig cfg2 = two_policy_config();
  cfg2.fault = FaultConfig{};
  const auto again = simulate(build_workload("zipf_kv", 0.05), cfg2);
  EXPECT_EQ(plain.energy(kPolicyCnt).in_joules(),
            again.energy(kPolicyCnt).in_joules());
  EXPECT_EQ(plain.energy(kPolicyBaseline).in_joules(),
            again.energy(kPolicyBaseline).in_joules());
}

TEST(FaultRunner, UnprotectedCampaignReportsSilentCorruption) {
  SimConfig cfg = two_policy_config();
  cfg.fault.stuck_per_mbit = 500.0;
  cfg.fault.transient_per_read = 1e-4;
  cfg.fault.protection = ProtectionScheme::kNone;
  const auto res = simulate(build_workload("zipf_kv", 0.05), cfg);
  EXPECT_TRUE(res.has_fault);
  EXPECT_GT(res.fault_stats.stuck_data_cells, 0u);
  EXPECT_GT(res.fault_stats.faulty_reads, 0u);
  EXPECT_GT(res.fault_stats.silent_bits, 0u);  // real SDC
  EXPECT_EQ(res.fault_stats.corrected_bits, 0u);
  EXPECT_EQ(res.fault_stats.detected_events, 0u);
}

TEST(FaultRunner, SecdedSuppressesSdcAndChargesEcc) {
  SimConfig unprot = two_policy_config();
  unprot.fault.stuck_per_mbit = 100.0;
  unprot.fault.transient_per_read = 1e-5;
  unprot.fault.protection = ProtectionScheme::kNone;
  const auto none = simulate(build_workload("zipf_kv", 0.05), unprot);

  SimConfig prot = unprot;
  prot.fault.protection = ProtectionScheme::kSecded;
  const auto secded = simulate(build_workload("zipf_kv", 0.05), prot);

  // At this modest density multi-bit codeword overlaps do not occur:
  // everything the unprotected run leaked is corrected or refetched.
  EXPECT_GT(none.fault_stats.silent_bits, 0u);
  EXPECT_EQ(secded.fault_stats.silent_bits, 0u);
  EXPECT_EQ(secded.fault_stats.dir_silent_bits, 0u);
  EXPECT_GT(secded.fault_stats.corrected_bits, 0u);

  // The protection is not free: check-bit storage and checker logic are
  // charged through the ledger, so every policy's total rises.
  EXPECT_GT(secded.energy(kPolicyCnt).in_joules(),
            none.energy(kPolicyCnt).in_joules());
  EXPECT_GT(secded.energy(kPolicyBaseline).in_joules(),
            none.energy(kPolicyBaseline).in_joules());
  const auto* cnt_run = secded.find(kPolicyCnt);
  ASSERT_NE(cnt_run, nullptr);
  EXPECT_GT(cnt_run->ledger.get(EnergyCategory::kEccStorage).in_joules(), 0.0);
  EXPECT_GT(cnt_run->ledger.get(EnergyCategory::kEccLogic).in_joules(), 0.0);
}

TEST(FaultRunner, ParityDetectsWithoutCorrecting) {
  SimConfig cfg = two_policy_config();
  cfg.fault.stuck_per_mbit = 100.0;
  cfg.fault.protection = ProtectionScheme::kParity;
  const auto res = simulate(build_workload("zipf_kv", 0.05), cfg);
  EXPECT_TRUE(res.has_fault);
  EXPECT_GT(res.fault_stats.detected_events, 0u);
  EXPECT_EQ(res.fault_stats.corrected_bits, 0u);
  EXPECT_EQ(res.fault_stats.dir_corrected_bits, 0u);
}

TEST(FaultRunner, CampaignIsDeterministic) {
  SimConfig cfg = two_policy_config();
  cfg.fault.stuck_per_mbit = 300.0;
  cfg.fault.transient_per_read = 1e-4;
  cfg.fault.protection = ProtectionScheme::kSecded;
  const auto a = simulate(build_workload("stream_copy", 0.05), cfg);
  const auto b = simulate(build_workload("stream_copy", 0.05), cfg);
  EXPECT_EQ(a.fault_stats.transient_data_flips,
            b.fault_stats.transient_data_flips);
  EXPECT_EQ(a.fault_stats.corrected_bits, b.fault_stats.corrected_bits);
  EXPECT_EQ(a.fault_stats.silent_bits, b.fault_stats.silent_bits);
  EXPECT_EQ(a.energy(kPolicyCnt).in_joules(), b.energy(kPolicyCnt).in_joules());
}

}  // namespace
}  // namespace cnt
