#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

TEST(MemAccess, ValidityRules) {
  EXPECT_TRUE(MemAccess::read(0x1000, 8).valid());
  EXPECT_TRUE(MemAccess::read(0x1004, 4).valid());
  EXPECT_TRUE(MemAccess::read(0x1001, 1).valid());
  EXPECT_FALSE(MemAccess::read(0x1001, 2).valid());  // misaligned
  EXPECT_FALSE(MemAccess::read(0x1000, 3).valid());  // non-pow2 size
  EXPECT_FALSE(MemAccess::read(0x1000, 16).valid()); // too wide
}

TEST(MemAccess, Factories) {
  const auto r = MemAccess::read(0x10, 4);
  EXPECT_EQ(r.op, MemOp::kRead);
  EXPECT_FALSE(r.is_write());
  const auto w = MemAccess::write(0x18, 0xAB, 8);
  EXPECT_EQ(w.op, MemOp::kWrite);
  EXPECT_TRUE(w.is_write());
  EXPECT_EQ(w.value, 0xABu);
  const auto f = MemAccess::ifetch(0x20);
  EXPECT_EQ(f.op, MemOp::kIFetch);
}

TEST(Trace, PushAndIterate) {
  Trace t("demo");
  t.push(MemAccess::read(0x40));
  t.push(MemAccess::write(0x48, 7));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(), "demo");
  EXPECT_FALSE(t.empty());
  usize n = 0;
  for (const auto& a : t) {
    (void)a;
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

TEST(Trace, WellFormedDetectsBadAccess) {
  Trace t;
  t.push(MemAccess::read(0x40));
  EXPECT_TRUE(t.well_formed());
  t.push(MemAccess::read(0x41, 4));  // misaligned
  EXPECT_FALSE(t.well_formed());
}

TEST(TraceStats, CountsAndFractions) {
  Trace t;
  t.push(MemAccess::read(0x00));        // line 0
  t.push(MemAccess::read(0x40));        // line 1
  t.push(MemAccess::write(0x80, 0xFF)); // line 2
  t.push(MemAccess::ifetch(0xC0));      // line 3, not in write_fraction
  const auto s = t.stats();
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.ifetches, 1u);
  EXPECT_EQ(s.unique_lines, 4u);
  EXPECT_DOUBLE_EQ(s.write_fraction, 1.0 / 3.0);
}

TEST(TraceStats, WriteBitDensityMasksBySize) {
  Trace t;
  // One-byte write of 0xFF: 8 bits, 8 ones -- the upper value bits must be
  // ignored.
  MemAccess a = MemAccess::write(0x10, 0xFFFF, 1);
  a.value = 0xFFFF;
  t.push(a);
  const auto s = t.stats();
  EXPECT_DOUBLE_EQ(s.write_bit1_density, 1.0);
}

TEST(TraceStats, EmptyTrace) {
  Trace t;
  const auto s = t.stats();
  EXPECT_EQ(s.accesses, 0u);
  EXPECT_DOUBLE_EQ(s.write_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.write_bit1_density, 0.0);
}

TEST(TraceStats, FootprintKib) {
  Trace t;
  for (u64 i = 0; i < 32; ++i) t.push(MemAccess::read(i * 64));
  EXPECT_DOUBLE_EQ(t.stats().footprint_kib, 2.0);
}

TEST(Interleave, MixesAtRequestedRatio) {
  Trace code("c"), data("d");
  for (u64 i = 0; i < 10; ++i) code.push(MemAccess::ifetch(0x1000 + i * 8));
  for (u64 i = 0; i < 4; ++i) data.push(MemAccess::read(0x2000 + i * 8));
  const Trace merged = interleave(code, data, 2);
  EXPECT_EQ(merged.size(), 14u);
  // Pattern: c c d c c d c c d c c d c c (tail of code appended).
  EXPECT_EQ(merged[0].op, MemOp::kIFetch);
  EXPECT_EQ(merged[1].op, MemOp::kIFetch);
  EXPECT_EQ(merged[2].op, MemOp::kRead);
  EXPECT_EQ(merged[5].op, MemOp::kRead);
}

TEST(Interleave, HandlesEmptyStreams) {
  Trace code("c"), data("d");
  for (u64 i = 0; i < 3; ++i) code.push(MemAccess::ifetch(i * 8));
  EXPECT_EQ(interleave(code, Trace{}, 2).size(), 3u);
  EXPECT_EQ(interleave(Trace{}, code, 2).size(), 3u);
  EXPECT_EQ(interleave(Trace{}, Trace{}, 2).size(), 0u);
}

TEST(Interleave, ZeroFetchesPerDataPutsTheCodeLast) {
  Trace code("c"), data("d");
  for (u64 i = 0; i < 3; ++i) code.push(MemAccess::ifetch(i * 8));
  for (u64 i = 0; i < 2; ++i) data.push(MemAccess::read(0x100 + i * 8));
  const Trace merged = interleave(code, data, 0);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].op, MemOp::kRead);
  EXPECT_EQ(merged[1].op, MemOp::kRead);
  EXPECT_EQ(merged[2].op, MemOp::kIFetch);
  EXPECT_EQ(merged[4].addr, 16u);
}

TEST(Interleave, PreservesEveryAccess) {
  const Workload code = build_workload("ifetch", 0.05);
  const Workload data = build_workload("zipf_kv", 0.05);
  const Trace merged = interleave(code.trace, data.trace, 3);
  EXPECT_EQ(merged.size(), code.trace.size() + data.trace.size());
  usize fetches = 0;
  for (const auto& a : merged) fetches += a.op == MemOp::kIFetch;
  EXPECT_EQ(fetches, code.trace.size());
}

}  // namespace
}  // namespace cnt
