#include "trace/gen/workloads.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

// Reads that precede any write to the same address must be covered by an
// init segment -- otherwise the workload reads undefined memory.
void expect_reads_initialized(const Workload& w) {
  auto covered = [&w](u64 addr, u8 size) {
    for (const auto& seg : w.init) {
      // Inside a segment's span the content is fully defined: explicit
      // bytes/runs or implicit zeros (sparse segments).
      if (seg.covers(addr, size)) return true;
    }
    return false;
  };
  std::unordered_map<u64, bool> written;  // word-granular (8B)
  usize checked = 0;
  for (const auto& a : w.trace) {
    const u64 word = a.addr / 8;
    if (a.op == MemOp::kWrite) {
      written[word] = true;
    } else if (!written.contains(word)) {
      ASSERT_TRUE(covered(a.addr, a.size))
          << w.name << ": uninitialized read at 0x" << std::hex << a.addr;
      if (++checked > 5000) return;  // bound the O(n) scan
    }
  }
}

class SuiteWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteWorkloads, WellFormedAndDeterministic) {
  const Workload a = build_workload(GetParam(), 0.25);
  EXPECT_EQ(a.name, GetParam());
  EXPECT_FALSE(a.description.empty());
  EXPECT_GT(a.trace.size(), 1000u);
  EXPECT_TRUE(a.trace.well_formed());

  const Workload b = build_workload(GetParam(), 0.25);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (usize i = 0; i < a.trace.size(); i += 97) {
    EXPECT_EQ(a.trace[i].addr, b.trace[i].addr);
    EXPECT_EQ(a.trace[i].value, b.trace[i].value);
  }
}

TEST_P(SuiteWorkloads, ReadsAreInitialized) {
  expect_reads_initialized(build_workload(GetParam(), 0.25));
}

TEST_P(SuiteWorkloads, ScaleChangesLength) {
  const Workload small = build_workload(GetParam(), 0.2);
  const Workload full = build_workload(GetParam(), 1.0);
  EXPECT_LE(small.trace.size(), full.trace.size());
}

INSTANTIATE_TEST_SUITE_P(AllSuite, SuiteWorkloads,
                         ::testing::ValuesIn(suite_names()));

TEST(Workloads, SuiteHasTenEntries) {
  EXPECT_EQ(default_suite().size(), 10u);
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW((void)build_workload("nope"), std::invalid_argument);
}

TEST(Workloads, NonFiniteOrHugeScaleIsRangeErrorNamingScale) {
  // Before the check, inf and 1e300 reached llround() and died in
  // vector::reserve, and NaN was silently clamped to 0.01.
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_refused = [](const char* name, double scale) {
    try {
      (void)build_workload(name, scale);
      ADD_FAILURE() << name << " accepted scale " << scale;
    } catch (const ValueError& e) {
      EXPECT_EQ(e.code(), Errc::kRange);
      EXPECT_EQ(e.info().message.rfind("scale '", 0), 0u)
          << e.info().message;
    }
  };
  for (const char* name : {"zipf_kv", "matmul", "srv_steady"}) {
    for (const double bad : {inf, -inf, std::nan("")}) {
      expect_refused(name, bad);
    }
  }
  expect_refused("zipf_kv", 1e300);
  expect_refused("srv_steady", 1e300);
}

TEST(Workloads, ScaledCountKeepsFiniteScalesAndClampsAtZero) {
  EXPECT_EQ(scaled_count(30000, 0.5), 15000.0);
  EXPECT_EQ(scaled_count(30000, -2.0), 0.0);
  EXPECT_EQ(scaled_count(0, 1e300), 0.0);
  EXPECT_THROW((void)scaled_count(30000, 1e15), ValueError);  // 3e19 > 2^63
  // Finite scales below 0.01 keep the clamp to 0.01.
  EXPECT_EQ(build_workload("zipf_kv", -1.0).trace.size(),
            build_workload("zipf_kv", 0.01).trace.size());
}

TEST(Workloads, WriteMixesDiffer) {
  // The suite must span read-heavy and write-heavy behaviour.
  double min_wf = 1.0, max_wf = 0.0;
  for (const auto& e : default_suite()) {
    const auto s = e.build(0.2, 0).trace.stats();
    min_wf = std::min(min_wf, s.write_fraction);
    max_wf = std::max(max_wf, s.write_fraction);
  }
  EXPECT_LT(min_wf, 0.12);
  EXPECT_GT(max_wf, 0.3);
}

TEST(Workloads, ValueDensitiesDiffer) {
  double min_d = 1.0, max_d = 0.0;
  for (const auto& e : default_suite()) {
    const auto s = e.build(0.2, 0).trace.stats();
    if (s.writes == 0) continue;
    min_d = std::min(min_d, s.write_bit1_density);
    max_d = std::max(max_d, s.write_bit1_density);
  }
  EXPECT_LT(min_d, 0.2);   // some workload writes near-zero-density data
  EXPECT_GT(max_d, 0.35);  // some workload writes float-like data
}

TEST(Workloads, HashJoinHasPhaseChange) {
  const Workload w = build_workload("hash_join", 0.3);
  // First third should be write-heavy, last third read-only.
  const usize n = w.trace.size();
  usize writes_front = 0, writes_back = 0;
  for (usize i = 0; i < n / 3; ++i) {
    writes_front += w.trace[i].is_write();
  }
  for (usize i = 2 * n / 3; i < n; ++i) {
    writes_back += w.trace[i].is_write();
  }
  EXPECT_GT(writes_front, n / 12);
  EXPECT_EQ(writes_back, 0u);
}

TEST(Workloads, IFetchStreamIsAllFetches) {
  const Workload w = build_workload("ifetch", 0.2);
  for (usize i = 0; i < w.trace.size(); i += 53) {
    EXPECT_EQ(w.trace[i].op, MemOp::kIFetch);
  }
  EXPECT_GT(w.trace.size(), 10000u);
}

TEST(Workloads, PointerChaseMostlyReads) {
  const auto s = build_workload("pointer_chase", 0.2).trace.stats();
  EXPECT_LT(s.write_fraction, 0.1);
}

}  // namespace
}  // namespace cnt
