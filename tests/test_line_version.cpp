// The line-version contract of AccessEvent (src/common/access_event.hpp):
// what the functional cache promises a sink that reuses work keyed on
// line_version, checked with a fault campaign corrupting reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/main_memory.hpp"
#include "common/rng.hpp"
#include "fault/campaign.hpp"

namespace cnt {
namespace {

/// '1' count of the w-th 8-byte word of `line`, byte by byte.
usize word_ones(std::span<const u8> line, usize w) {
  usize ones = 0;
  for (usize b = 0; b < 8; ++b) {
    ones += static_cast<usize>(std::popcount(static_cast<u32>(line[w * 8 + b])));
  }
  return ones;
}

/// Records what each (set, way) last carried and checks every event
/// against it:
///  * the same nonzero version on the same line means identical
///    line_after bytes and ones profile;
///  * a store, a fill or a read with silent flips carries a version newer
///    than any seen before, and a read with no silent flip (nothing
///    flipped, or every flip corrected or detected) keeps the line's
///    version;
///  * a version names one line only, and write-arounds carry 0;
///  * the profiles always describe line_after and a dirty victim's
///    line_before.
class VersionRecorder final : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override {
    ++events;
    if (ev.kind == AccessKind::kWriteAround) {
      EXPECT_EQ(ev.line_version, 0u);
      return;
    }
    ASSERT_NE(ev.line_version, 0u);
    const usize words = ev.line_after.size() / 8;
    ASSERT_EQ(ev.ones_after.size(), words);
    usize total = 0;
    for (usize w = 0; w < words; ++w) {
      EXPECT_EQ(usize{ev.ones_after[w]}, word_ones(ev.line_after, w)) << w;
      total += ev.ones_after[w];
    }
    EXPECT_EQ(ev.ones_after_total, total);
    if (ev.evicted_dirty) {
      ++dirty_victims;
      ASSERT_EQ(ev.ones_before.size(), words);
      for (usize w = 0; w < words; ++w) {
        EXPECT_EQ(usize{ev.ones_before[w]}, word_ones(ev.line_before, w)) << w;
      }
    }

    const std::pair<u32, u32> line{ev.set, ev.way};
    const auto [owner, fresh] = owner_.try_emplace(ev.line_version, line);
    EXPECT_EQ(owner->second, line) << "version on two lines";

    Seen& seen = seen_[line];
    const bool moves =
        ev.kind != AccessKind::kReadHit || ev.fault.silent != 0;
    if (moves) {
      EXPECT_GT(ev.line_version, newest_);
      ++moved;
    } else if (seen.version != 0) {
      EXPECT_EQ(ev.line_version, seen.version);
      EXPECT_FALSE(fresh);
      ++kept;
      if (ev.line_version == seen.version) {
        EXPECT_TRUE(std::ranges::equal(ev.line_after, seen.bytes));
        EXPECT_TRUE(std::ranges::equal(ev.ones_after, seen.profile));
      }
    }
    if (ev.kind == AccessKind::kReadHit && ev.fault.flips != 0) {
      ++(ev.fault.silent != 0 ? silent_reads : repaired_reads);
    }
    newest_ = std::max(newest_, ev.line_version);
    seen.version = ev.line_version;
    seen.bytes.assign(ev.line_after.begin(), ev.line_after.end());
    seen.profile.assign(ev.ones_after.begin(), ev.ones_after.end());
  }

  u64 events = 0;
  u64 moved = 0;
  u64 kept = 0;
  u64 silent_reads = 0;    ///< read hits left with silent flips
  u64 repaired_reads = 0;  ///< read hits whose every flip was repaired
  u64 dirty_victims = 0;

 private:
  struct Seen {
    u64 version = 0;
    std::vector<u8> bytes;
    std::vector<u8> profile;
  };
  std::map<std::pair<u32, u32>, Seen> seen_;
  std::map<u64, std::pair<u32, u32>> owner_;
  u64 newest_ = 0;
};

CacheConfig small_cache() {
  CacheConfig c;
  c.size_bytes = 2048;
  c.ways = 4;
  c.line_bytes = 64;
  return c;
}

void random_traffic(Cache& cache, Rng& rng, usize n) {
  for (usize i = 0; i < n; ++i) {
    const u64 addr = rng.uniform(4096 / 8) * 8;
    if (rng.chance(0.7)) {
      cache.access(MemAccess::read(addr, 8));
    } else {
      cache.access(MemAccess::write(addr, rng.chance(0.3) ? 0 : rng.next(), 8));
    }
  }
}

TEST(LineVersion, ContractHoldsUnderAFaultCampaign) {
  for (const ProtectionScheme scheme :
       {ProtectionScheme::kNone, ProtectionScheme::kParity,
        ProtectionScheme::kSecded}) {
    for (const WritePolicy wp :
         {WritePolicy::kWriteBack, WritePolicy::kWriteThrough}) {
      CacheConfig cfg = small_cache();
      cfg.write_policy = wp;
      FaultConfig fault;
      fault.stuck_per_mbit = 2000.0;
      fault.transient_per_read = 1e-4;
      fault.protection = scheme;
      FaultCampaign campaign(fault, cfg.sets(), cfg.ways, cfg.line_bytes, 8);
      MainMemory memory;
      Cache cache(cfg, memory);
      cache.set_fault_hook(&campaign);
      VersionRecorder recorder;
      cache.add_sink(recorder);
      Rng rng(static_cast<u64>(scheme) * 2 + (wp == WritePolicy::kWriteBack));
      random_traffic(cache, rng, 20000);
      // Line traffic from an upper level takes the same path.
      std::vector<u8> line(64, 0xA5);
      cache.write_line(64, line);
      cache.read_line(0, line);
      EXPECT_EQ(recorder.events, 20002u);
      EXPECT_GT(recorder.kept, 1000u);
      // Unprotected flips are all silent; a protected read whose flips
      // were all corrected or detected keeps the line's version.
      if (scheme == ProtectionScheme::kNone) {
        EXPECT_GT(recorder.silent_reads, 0u);
        EXPECT_EQ(recorder.repaired_reads, 0u);
      } else {
        EXPECT_GT(recorder.repaired_reads, 0u);
      }
      EXPECT_EQ(recorder.dirty_victims > 0, wp == WritePolicy::kWriteBack);
    }
  }
}

// Profiles are kept up to date only while a sink reads them: a sink that
// joins a cache that already ran must still get correct profiles and a
// version that moves with every change.
TEST(LineVersion, SinkAddedAfterTrafficSeesCorrectProfiles) {
  MainMemory memory;
  Cache cache(small_cache(), memory);
  Rng rng(7);
  random_traffic(cache, rng, 5000);
  VersionRecorder recorder;
  cache.add_sink(recorder);
  random_traffic(cache, rng, 5000);
  EXPECT_EQ(recorder.events, 5000u);
  EXPECT_GT(recorder.kept, 0u);
}

// A synthetic event (built by hand, not by a cache) carries version 0.
TEST(LineVersion, DefaultEventIsUnversioned) {
  EXPECT_EQ(AccessEvent{}.line_version, 0u);
}

}  // namespace
}  // namespace cnt
