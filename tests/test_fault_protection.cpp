#include "fault/protection.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/stuck_map.hpp"

namespace cnt {
namespace {

TEST(SecdedCheckBits, MatchesHammingPlusParity) {
  // Smallest r with 2^r >= payload + r + 1, plus one overall-parity bit.
  EXPECT_EQ(secded_check_bits(0), 0u);
  EXPECT_EQ(secded_check_bits(1), 3u);    // Hamming(3,1) + parity
  EXPECT_EQ(secded_check_bits(4), 4u);    // Hamming(7,4) + parity
  EXPECT_EQ(secded_check_bits(8), 5u);    // Hamming(12,8) + parity
  EXPECT_EQ(secded_check_bits(64), 8u);   // the classic (72,64) SECDED
  EXPECT_EQ(secded_check_bits(128), 9u);
  EXPECT_EQ(secded_check_bits(256), 10u);
  EXPECT_EQ(secded_check_bits(512), 11u);
}

TEST(ParityCheckBits, OnePerPartition) {
  EXPECT_EQ(parity_check_bits(1), 1u);
  EXPECT_EQ(parity_check_bits(8), 8u);
  EXPECT_EQ(parity_check_bits(64), 64u);
}

TEST(ClassifySecded, ByFlipCount) {
  EXPECT_EQ(classify_secded(0), FaultOutcome::kClean);
  EXPECT_EQ(classify_secded(1), FaultOutcome::kCorrected);
  EXPECT_EQ(classify_secded(2), FaultOutcome::kDetected);
  EXPECT_EQ(classify_secded(3), FaultOutcome::kSilent);
  EXPECT_EQ(classify_secded(7), FaultOutcome::kSilent);
}

TEST(ClassifyParity, ByGroupWeight) {
  EXPECT_EQ(classify_parity(0), FaultOutcome::kClean);
  EXPECT_EQ(classify_parity(1), FaultOutcome::kDetected);
  EXPECT_EQ(classify_parity(2), FaultOutcome::kSilent);
  EXPECT_EQ(classify_parity(3), FaultOutcome::kDetected);
  EXPECT_EQ(classify_parity(4), FaultOutcome::kSilent);
}

TEST(ProtectionSpec, NoneIsFree) {
  const auto spec = make_protection_spec(ProtectionScheme::kNone, 512, 8, true);
  EXPECT_FALSE(spec.enabled());
  EXPECT_EQ(spec.check_bits, 0u);
  EXPECT_EQ(spec.covered_bits, 0u);
}

TEST(ProtectionSpec, ParityCoversDataAndOptionallyDirections) {
  const auto data_only =
      make_protection_spec(ProtectionScheme::kParity, 512, 8, false);
  EXPECT_TRUE(data_only.enabled());
  EXPECT_EQ(data_only.covered_bits, 512u);
  EXPECT_EQ(data_only.check_bits, 8u);

  const auto with_dirs =
      make_protection_spec(ProtectionScheme::kParity, 512, 8, true);
  EXPECT_EQ(with_dirs.covered_bits, 520u);
  EXPECT_EQ(with_dirs.check_bits, 8u);  // dir bit p folds into group p
}

TEST(ProtectionSpec, SecdedWidensWithPayload) {
  const auto data_only =
      make_protection_spec(ProtectionScheme::kSecded, 512, 8, false);
  EXPECT_EQ(data_only.covered_bits, 512u);
  EXPECT_EQ(data_only.check_bits, 11u);

  const auto with_dirs =
      make_protection_spec(ProtectionScheme::kSecded, 512, 8, true);
  EXPECT_EQ(with_dirs.covered_bits, 520u);
  EXPECT_EQ(with_dirs.check_bits, 11u);  // 2^10 >= 520 + 10 + 1 still holds
}

TEST(ProtectionScheme, Names) {
  EXPECT_EQ(to_string(ProtectionScheme::kNone), "none");
  EXPECT_EQ(to_string(ProtectionScheme::kParity), "parity");
  EXPECT_EQ(to_string(ProtectionScheme::kSecded), "secded");
}

TEST(StuckMap, DeterministicForSeed) {
  const StuckMap a(42, 1u << 20, 100.0, 0.5);
  const StuckMap b(42, 1u << 20, 100.0, 0.5);
  const StuckMap c(43, 1u << 20, 100.0, 0.5);
  EXPECT_EQ(a.size(), 100u);  // 100 per Mbit over exactly 1 Mbit
  ASSERT_EQ(a.size(), b.size());
  usize same = 0;
  a.for_range(0, 1u << 20, [&](u64 off, bool val) {
    same += b.count_in(off, 1) != 0;
    (void)val;
  });
  EXPECT_EQ(same, a.size());
  // A different seed places a (overwhelmingly) different pattern.
  usize overlap = 0;
  a.for_range(0, 1u << 20, [&](u64 off, bool) {
    overlap += c.count_in(off, 1) != 0;
  });
  EXPECT_LT(overlap, a.size());
}

TEST(StuckMap, ZeroDensityIsEmpty) {
  const StuckMap m(7, 1u << 20, 0.0, 0.5);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.count_in(0, 1u << 20), 0u);
}

TEST(StuckMap, RangeQueriesMatchAFullScanAtEveryDensity) {
  // The bucket index must find exactly the cells a scan of the whole map
  // finds, for sparse maps (wide buckets) through saturated ones (one bit
  // per bucket), odd array sizes, and ranges that start or end anywhere.
  for (const u64 total : {u64{1}, u64{777}, u64{1} << 16}) {
    for (const double per_mbit : {5.0, 200.0, 1e5, 1048576.0}) {
      const StuckMap m(11, total, per_mbit, 0.5);
      std::vector<std::pair<u64, bool>> all;
      m.for_range(0, total, [&](u64 off, bool v) { all.emplace_back(off, v); });
      ASSERT_EQ(all.size(), m.size());
      Rng rng(total + static_cast<u64>(per_mbit));
      for (int q = 0; q < 300; ++q) {
        const u64 base = rng.uniform(total);
        const u64 count = rng.uniform(total - base) + 1;
        std::vector<std::pair<u64, bool>> got;
        m.for_range(base, count,
                    [&](u64 off, bool v) { got.emplace_back(base + off, v); });
        std::vector<std::pair<u64, bool>> want;
        for (const auto& c : all) {
          if (c.first >= base && c.first < base + count) want.push_back(c);
        }
        ASSERT_EQ(got, want) << "total=" << total << " density=" << per_mbit
                             << " base=" << base << " count=" << count;
      }
    }
  }
}

TEST(StuckMap, At1FractionExtremes) {
  const StuckMap ones(9, 1u << 20, 50.0, 1.0);
  ones.for_range(0, 1u << 20, [](u64, bool val) { EXPECT_TRUE(val); });
  const StuckMap zeros(9, 1u << 20, 50.0, 0.0);
  zeros.for_range(0, 1u << 20, [](u64, bool val) { EXPECT_FALSE(val); });
}

}  // namespace
}  // namespace cnt
