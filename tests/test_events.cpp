// AccessEvent contract tests: what the functional cache promises every
// observer, independent of any energy policy.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "cache/cache.hpp"
#include "cnt/encoding.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"

namespace cnt {
namespace {

CacheConfig tiny() {
  CacheConfig c;
  c.size_bytes = 1024;
  c.ways = 2;
  c.line_bytes = 64;
  return c;
}

TEST(Events, KindToStringCoverage) {
  EXPECT_STREQ(to_string(AccessKind::kReadHit), "read_hit");
  EXPECT_STREQ(to_string(AccessKind::kWriteHit), "write_hit");
  EXPECT_STREQ(to_string(AccessKind::kReadMissFill), "read_miss");
  EXPECT_STREQ(to_string(AccessKind::kWriteMissFill), "write_miss");
  EXPECT_STREQ(to_string(AccessKind::kWriteAround), "write_around");
}

TEST(Events, HelperPredicates) {
  AccessEvent ev;
  ev.kind = AccessKind::kReadMissFill;
  EXPECT_TRUE(ev.is_fill());
  EXPECT_FALSE(ev.is_hit());
  ev.kind = AccessKind::kWriteHit;
  EXPECT_FALSE(ev.is_fill());
  EXPECT_TRUE(ev.is_hit());
  ev.kind = AccessKind::kWriteAround;
  EXPECT_FALSE(ev.is_fill());
  EXPECT_FALSE(ev.is_hit());
}

/// Validates structural invariants on every event.
class ContractChecker final : public AccessSink {
 public:
  explicit ContractChecker(const CacheConfig& cfg) : cfg_(cfg) {}

  void on_access(const AccessEvent& ev) override {
    ++events;
    EXPECT_LT(ev.set, cfg_.sets());
    if (ev.kind != AccessKind::kWriteAround) {
      EXPECT_LT(ev.way, cfg_.ways);
      EXPECT_EQ(ev.line_before.size(), cfg_.line_bytes);
      EXPECT_EQ(ev.line_after.size(), cfg_.line_bytes);
      EXPECT_EQ(cfg_.set_index(ev.addr), ev.set);
      EXPECT_EQ(cfg_.tag_of(ev.addr), ev.tag);
      if (ev.size != 0) {
        EXPECT_LE(ev.offset + ev.size, cfg_.line_bytes);
        EXPECT_EQ(ev.offset, cfg_.offset_of(ev.addr));
      }
    }
    EXPECT_EQ(ev.tag_bits_read, (cfg_.tag_bits() + 2) * cfg_.ways);
    EXPECT_LE(ev.tag_ones_read, ev.tag_bits_read);
    if (ev.is_fill()) {
      EXPECT_EQ(ev.tag_bits_written, cfg_.tag_bits() + 2);
      EXPECT_LE(ev.tag_ones_written, ev.tag_bits_written);
    } else {
      EXPECT_EQ(ev.tag_bits_written, 0u);
    }
    if (ev.kind == AccessKind::kReadHit) {
      // Reads leave the line unchanged.
      EXPECT_TRUE(std::equal(ev.line_before.begin(), ev.line_before.end(),
                             ev.line_after.begin()));
    }
    if (ev.evicted_dirty) {
      EXPECT_TRUE(ev.evicted_valid);
    }
  }

  usize events = 0;

 private:
  CacheConfig cfg_;
};

TEST(Events, ContractHoldsUnderRandomTraffic) {
  const auto cfg = tiny();
  MainMemory mem;
  Cache cache(cfg, mem);
  ContractChecker checker(cfg);
  cache.add_sink(checker);

  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    // cnt-lint: narrow-ok -- 1 << k with k < 4
    const u8 size = static_cast<u8>(1u << rng.uniform(4));
    const u64 addr = rng.uniform(8192 / size) * size;
    if (rng.chance(0.4)) {
      cache.access(MemAccess::write(addr, rng.next(), size));
    } else {
      cache.access(MemAccess::read(addr, size));
    }
  }
  EXPECT_EQ(checker.events, 10000u);
}

TEST(Events, SinksSeeIdenticalStreamInOrder) {
  struct Recorder final : AccessSink {
    std::vector<std::pair<AccessKind, u64>> log;
    void on_access(const AccessEvent& ev) override {
      log.emplace_back(ev.kind, ev.addr);
    }
  };
  MainMemory mem;
  Cache cache(tiny(), mem);
  Recorder a, b;
  cache.add_sink(a);
  cache.add_sink(b);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    cache.access(MemAccess::read(rng.uniform(64) * 64));
  }
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.log.size(), 500u);
}

TEST(Events, WriteAroundHasEmptySpans) {
  auto cfg = tiny();
  cfg.alloc_policy = AllocPolicy::kNoWriteAllocate;
  MainMemory mem;
  Cache cache(cfg, mem);
  struct Check final : AccessSink {
    void on_access(const AccessEvent& ev) override {
      ASSERT_EQ(ev.kind, AccessKind::kWriteAround);
      EXPECT_TRUE(ev.line_before.empty());
      EXPECT_TRUE(ev.line_after.empty());
      EXPECT_TRUE(ev.ones_after.empty());
      EXPECT_TRUE(ev.ones_before.empty());
      EXPECT_EQ(ev.ones_after_total, 0u);
      EXPECT_FALSE(ev.evicted_valid);
    }
  } check;
  cache.add_sink(check);
  cache.access(MemAccess::write(0x100, 1));
}

TEST(Events, EvictionFieldsOnConflictMiss) {
  const auto cfg = tiny();
  MainMemory mem;
  Cache cache(cfg, mem);
  struct Last final : AccessSink {
    AccessKind kind{};
    bool evicted_valid = false;
    bool evicted_dirty = false;
    u64 evicted_tag = 0;
    std::vector<u8> before;
    void on_access(const AccessEvent& ev) override {
      kind = ev.kind;
      evicted_valid = ev.evicted_valid;
      evicted_dirty = ev.evicted_dirty;
      evicted_tag = ev.evicted_tag;
      before.assign(ev.line_before.begin(), ev.line_before.end());
    }
  } last;
  cache.add_sink(last);

  const u64 stride = cfg.sets() * cfg.line_bytes;
  cache.access(MemAccess::write(0x0, 0xAB));  // dirty line, tag 0
  cache.access(MemAccess::read(stride));      // fills way 1
  cache.access(MemAccess::read(2 * stride));  // evicts tag 0 (LRU)
  EXPECT_EQ(last.kind, AccessKind::kReadMissFill);
  EXPECT_TRUE(last.evicted_valid);
  EXPECT_TRUE(last.evicted_dirty);
  EXPECT_EQ(last.evicted_tag, cfg.tag_of(0x0));
  EXPECT_EQ(last.before[0], 0xAB);  // the victim's data was visible
}

// ---- Ones profile -------------------------------------------------------

/// '1' count of the w-th 8-byte word of `line`, bit by bit (independent of
/// the word-packed kernels under test).
usize word_ones(std::span<const u8> line, usize w) {
  usize ones = 0;
  for (usize b = 0; b < 8; ++b) {
    ones += static_cast<usize>(std::popcount(static_cast<u32>(line[w * 8 + b])));
  }
  return ones;
}

/// Checks the ones-profile fields of every event, and that the partition
/// counts policies derive from them equal the byte counts for every K.
class ProfileChecker final : public AccessSink {
 public:
  explicit ProfileChecker(usize line_bytes) : line_bytes_(line_bytes) {
    for (usize k = 1; k <= 64 && k <= line_bytes; k *= 2) {
      schemes_.emplace_back(line_bytes, k);
    }
  }

  void on_access(const AccessEvent& ev) override {
    ++events;
    if (ev.kind == AccessKind::kWriteAround) return;
    const usize words = line_bytes_ / 8;
    ASSERT_EQ(ev.ones_after.size(), words);
    usize total = 0;
    for (usize w = 0; w < words; ++w) {
      EXPECT_EQ(ev.ones_after[w], word_ones(ev.line_after, w)) << w;
      total += word_ones(ev.line_after, w);
    }
    EXPECT_EQ(ev.ones_after_total, total);

    // The before profile exists exactly when a dirty victim is priced.
    if (ev.evicted_dirty) {
      ++dirty_victims;
      ASSERT_EQ(ev.ones_before.size(), words);
      for (usize w = 0; w < words; ++w) {
        EXPECT_EQ(ev.ones_before[w], word_ones(ev.line_before, w)) << w;
      }
    } else {
      EXPECT_TRUE(ev.ones_before.empty());
    }

    // Partition counts from the profile match the bytes. A poisoned
    // profile shows which path ran: partitions of whole 64-bit words read
    // the profile, narrower ones (K=16/32/64 on 64 B lines) fall back to
    // the bytes and ignore it.
    const std::vector<u8> poison(words, 0xFF);
    for (const PartitionScheme& ps : schemes_) {
      const bool whole_words = ps.partition_bits() % 64 == 0;
      for (usize p = 0; p < ps.partitions(); ++p) {
        const usize raw = stored_partition_ones(ps, ev.line_after, p, false);
        EXPECT_EQ(profile_partition_ones(ps, ev.line_after, ev.ones_after, p),
                  raw);
        const usize poisoned =
            profile_partition_ones(ps, ev.line_after, poison, p);
        if (whole_words) {
          ++profile_reads;
          EXPECT_EQ(poisoned, 0xFFu * (ps.partition_bits() / 64));
        } else {
          ++fallbacks;
          EXPECT_EQ(poisoned, raw) << "K=" << ps.partitions();
        }
      }
    }
  }

  usize events = 0;
  usize dirty_victims = 0;
  usize profile_reads = 0;
  usize fallbacks = 0;

 private:
  usize line_bytes_;
  std::vector<PartitionScheme> schemes_;
};

TEST(Events, OnesProfileMatchesTheLinesAtEveryLineSize) {
  for (const usize line : {8u, 16u, 32u, 64u, 128u, 256u}) {
    for (const bool sectored : {false, true}) {
      CacheConfig cfg;
      cfg.size_bytes = 32 * line;
      cfg.ways = 4;
      cfg.line_bytes = line;
      cfg.sector_writeback = sectored;
      MainMemory mem;
      Cache cache(cfg, mem);
      ProfileChecker checker(line);
      cache.add_sink(checker);
      Rng rng(line * 2 + (sectored ? 1 : 0));
      for (int i = 0; i < 3000; ++i) {
        // cnt-lint: narrow-ok -- 1 << k with k < 4
        const u8 size = static_cast<u8>(1u << rng.uniform(4));
        const u64 addr = rng.uniform(64 * line / size) * size;
        if (rng.chance(0.4)) {
          cache.access(MemAccess::write(addr, rng.next(), size));
        } else {
          cache.access(MemAccess::read(addr, size));
        }
      }
      // Full-line traffic from an upper level takes the same path.
      std::vector<u8> block(line, 0x5A);
      cache.write_line(0, block);
      cache.read_line(line * 40, block);
      EXPECT_EQ(checker.events, 3002u);
      EXPECT_GT(checker.dirty_victims, 0u) << line;
      EXPECT_GT(checker.profile_reads, 0u) << line;
      if (line == 64) {
        EXPECT_GT(checker.fallbacks, 0u);
      }
    }
  }
}

TEST(Events, OnesProfileSeesFaultMutatedLines) {
  // A fault hook corrupts the stored line before the event is built; the
  // profile must describe the corrupted bytes the sinks see.
  struct FlipFirstBit final : LineFaultHook {
    void on_fill(u32, u32, std::span<u8>) override {}
    LineFaultReport on_read(u32, u32, std::span<u8> stored) override {
      stored[0] ^= 1u;
      LineFaultReport r;
      r.flips = r.silent = 1;
      return r;
    }
  } hook;
  MainMemory mem;
  Cache cache(tiny(), mem);
  cache.set_fault_hook(&hook);
  ProfileChecker checker(64);
  cache.add_sink(checker);
  for (int i = 0; i < 50; ++i) cache.access(MemAccess::read(0x40, 8));
  EXPECT_EQ(checker.events, 50u);
}

}  // namespace
}  // namespace cnt
