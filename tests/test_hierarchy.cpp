#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace cnt {
namespace {

TEST(Hierarchy, TypicalConfigValid) {
  const auto cfg = HierarchyConfig::typical();
  EXPECT_NO_THROW(cfg.l1d.validate());
  EXPECT_NO_THROW(cfg.l1i.validate());
  EXPECT_NO_THROW(cfg.l2.validate());
  EXPECT_EQ(cfg.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l2.size_bytes, 256u * 1024);
}

TEST(Hierarchy, RejectsL2LineSizeDifferentFromL1) {
  MainMemory mem;
  auto cfg = HierarchyConfig::typical();
  cfg.l2.line_bytes = 128;  // longer than both L1s' 64 B lines
  EXPECT_THROW(Hierarchy(cfg, mem), std::invalid_argument);
  cfg.l2.line_bytes = 32;
  EXPECT_THROW(Hierarchy(cfg, mem), std::invalid_argument);
}

TEST(Hierarchy, RejectsL1ILineSizeDifferentFromL1D) {
  MainMemory mem;
  auto cfg = HierarchyConfig::typical();
  cfg.l1i.line_bytes = 32;
  try {
    Hierarchy h(cfg, mem);
    FAIL() << "mismatched L1I line size accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("L1I"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("L2"), std::string::npos)
        << e.what();
  }
  // Without an L2 each L1 fills straight from memory, at any line size.
  cfg.enable_l2 = false;
  EXPECT_NO_THROW(Hierarchy(cfg, mem));
}

TEST(Hierarchy, RoutesByOp) {
  MainMemory mem;
  Hierarchy h(HierarchyConfig::typical(), mem);
  h.access(MemAccess::read(0x1000));
  h.access(MemAccess::write(0x2000, 1));
  h.access(MemAccess::ifetch(0x400000));
  EXPECT_EQ(h.l1d().stats().accesses, 2u);
  EXPECT_EQ(h.l1i().stats().accesses, 1u);
}

TEST(Hierarchy, L2SeesL1Misses) {
  MainMemory mem;
  Hierarchy h(HierarchyConfig::typical(), mem);
  h.access(MemAccess::read(0x1000));  // L1D miss -> L2 miss -> memory
  h.access(MemAccess::read(0x1000));  // L1D hit, L2 untouched
  EXPECT_EQ(h.l2().stats().accesses, 1u);
  EXPECT_EQ(mem.traffic().line_reads, 1u);
}

TEST(Hierarchy, WithoutL2GoesStraightToMemory) {
  MainMemory mem;
  auto cfg = HierarchyConfig::typical();
  cfg.enable_l2 = false;
  Hierarchy h(cfg, mem);
  EXPECT_FALSE(h.has_l2());
  h.access(MemAccess::read(0x1000));
  EXPECT_EQ(mem.traffic().line_reads, 1u);
}

TEST(Hierarchy, RunReplaysWholeTrace) {
  MainMemory mem;
  Hierarchy h(HierarchyConfig::typical(), mem);
  std::vector<MemAccess> t;
  for (u64 i = 0; i < 100; ++i) t.push_back(MemAccess::read(i * 8));
  h.run(t);
  EXPECT_EQ(h.l1d().stats().accesses, 100u);
}

TEST(Hierarchy, FlushAllReachesMemory) {
  MainMemory mem;
  Hierarchy h(HierarchyConfig::typical(), mem);
  h.access(MemAccess::write(0x3000, 0x5A));
  EXPECT_EQ(mem.peek_word(0x3000, 8), 0u);
  h.flush_all();
  EXPECT_EQ(mem.peek_word(0x3000, 8), 0x5Au);
}

TEST(Hierarchy, InclusionOfDataOnFirstTouch) {
  MainMemory mem;
  mem.write_word(0x4000, 0xABC, 8);
  Hierarchy h(HierarchyConfig::typical(), mem);
  h.access(MemAccess::read(0x4000));
  EXPECT_EQ(h.l1d().peek_word(0x4000, 8), 0xABCu);
  EXPECT_EQ(h.l2().peek_word(0x4000, 8), 0xABCu);
}

TEST(Hierarchy, StressRandomTrafficStaysCoherent) {
  MainMemory mem;
  auto cfg = HierarchyConfig::typical();
  cfg.l1d.size_bytes = 1024;
  cfg.l1d.ways = 2;
  cfg.l2.size_bytes = 4096;
  cfg.l2.ways = 2;
  Hierarchy h(cfg, mem);
  Rng rng(77);
  std::unordered_map<u64, u64> golden;
  for (int i = 0; i < 20000; ++i) {
    const u64 addr = rng.uniform(2048) * 8;
    if (rng.chance(0.5)) {
      const u64 v = rng.next();
      h.access(MemAccess::write(addr, v));
      golden[addr] = v;
    } else {
      h.access(MemAccess::read(addr));
    }
  }
  h.flush_all();
  for (const auto& [addr, v] : golden) {
    ASSERT_EQ(mem.peek_word(addr, 8), v);
  }
}

}  // namespace
}  // namespace cnt
