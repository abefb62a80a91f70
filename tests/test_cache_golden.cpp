// Golden-model test: the cache + memory system must behave exactly like a
// flat byte-addressable memory under an arbitrary access stream, for every
// combination of write/alloc/replacement policy. This is the substrate's
// core functional-correctness property.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <tuple>

#include "cache/cache.hpp"
#include "common/rng.hpp"

namespace cnt {
namespace {

struct GoldenParam {
  WritePolicy write;
  AllocPolicy alloc;
  ReplKind repl;
  usize ways;
  bool way_prediction = false;
  bool sector_writeback = false;
};

// gtest names each case "<name>  # GetParam() = <value>", and its fallback
// printer dumps the object's raw bytes, padding included. Padding contents
// are unspecified, so the case names changed from build to build. Print the
// same "N-byte object <..>" form with every padding byte zeroed.
void PrintTo(const GoldenParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(GoldenParam)] = {};
  const auto put = [&bytes](usize offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof(field));
  };
  put(offsetof(GoldenParam, write), p.write);
  put(offsetof(GoldenParam, alloc), p.alloc);
  put(offsetof(GoldenParam, repl), p.repl);
  put(offsetof(GoldenParam, ways), p.ways);
  put(offsetof(GoldenParam, way_prediction), p.way_prediction);
  put(offsetof(GoldenParam, sector_writeback), p.sector_writeback);
  *os << sizeof(GoldenParam) << "-byte object <";
  for (usize i = 0; i < sizeof(bytes); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

class CacheGolden : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(CacheGolden, MatchesFlatMemory) {
  const auto param = GetParam();
  CacheConfig cfg;
  cfg.size_bytes = 2048;  // small: lots of evictions
  cfg.ways = param.ways;
  cfg.line_bytes = 64;
  cfg.write_policy = param.write;
  cfg.alloc_policy = param.alloc;
  cfg.replacement = param.repl;
  cfg.way_prediction = param.way_prediction;
  cfg.sector_writeback = param.sector_writeback;

  MainMemory mem;
  Cache cache(cfg, mem);

  std::map<u64, u8> golden;  // byte-granular reference
  Rng rng(2024);
  constexpr u64 kAddrSpace = 16 * 1024;  // 8x the cache: heavy conflict

  for (int i = 0; i < 20000; ++i) {
    // cnt-lint: narrow-ok -- 1 << k with k < 4
    const u8 size = static_cast<u8>(1u << rng.uniform(4));
    const u64 addr = rng.uniform(kAddrSpace / size) * size;
    if (rng.chance(0.45)) {
      u64 value = rng.next();
      if (size < 8) value &= (1ULL << (size * 8)) - 1;
      cache.access(MemAccess::write(addr, value, size));
      for (u8 b = 0; b < size; ++b) {
        golden[addr + b] = static_cast<u8>(value >> (8 * b));
      }
    } else {
      cache.access(MemAccess::read(addr, size));
    }
    // Periodically cross-check a resident word against the golden image.
    if (i % 97 == 0) {
      const u64 check = rng.uniform(kAddrSpace / 8) * 8;
      u64 expect = 0;
      for (u8 b = 0; b < 8; ++b) {
        const auto it = golden.find(check + b);
        expect |= static_cast<u64>(it == golden.end() ? 0 : it->second)
                  << (8 * b);
      }
      const u64 got = cache.find_way(check).has_value()
                          ? cache.peek_word(check, 8)
                          : mem.peek_word(check, 8);
      // A non-resident line's bytes may legitimately still be in the cache's
      // dirty copy... but if not resident, writeback already happened or the
      // line was never cached; either way memory is authoritative.
      if (cache.find_way(check).has_value()) {
        EXPECT_EQ(got, expect) << "resident word at 0x" << std::hex << check;
      }
    }
  }

  // Final flush: every byte must match the golden image.
  cache.flush();
  for (const auto& [addr, byte] : golden) {
    ASSERT_EQ(mem.peek(addr), byte) << "byte at 0x" << std::hex << addr;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CacheGolden,
    ::testing::Values(
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate,
                    ReplKind::kLru, 4},
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate,
                    ReplKind::kTreePlru, 4},
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate,
                    ReplKind::kFifo, 2},
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate,
                    ReplKind::kRandom, 8},
        GoldenParam{WritePolicy::kWriteThrough, AllocPolicy::kWriteAllocate,
                    ReplKind::kLru, 4},
        GoldenParam{WritePolicy::kWriteThrough, AllocPolicy::kNoWriteAllocate,
                    ReplKind::kLru, 4},
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kNoWriteAllocate,
                    ReplKind::kLru, 4},
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate,
                    ReplKind::kLru, 1},
        GoldenParam{WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate,
                    ReplKind::kLru, 4, /*way_prediction=*/true,
                    /*sector_writeback=*/true},
        GoldenParam{WritePolicy::kWriteThrough, AllocPolicy::kWriteAllocate,
                    ReplKind::kTreePlru, 4, /*way_prediction=*/true,
                    /*sector_writeback=*/false}),
    [](const ::testing::TestParamInfo<GoldenParam>& param_info) {
      const auto& p = param_info.param;
      std::string name;
      name += p.write == WritePolicy::kWriteBack ? "wb" : "wt";
      name += p.alloc == AllocPolicy::kWriteAllocate ? "_wa" : "_nwa";
      name += "_";
      name += to_string(p.repl);
      name += "_w" + std::to_string(p.ways);
      if (p.way_prediction) name += "_wp";
      if (p.sector_writeback) name += "_sw";
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Two-level golden test: L1 -> L2 -> memory must still be coherent.
TEST(CacheGoldenHierarchy, TwoLevelsMatchFlatMemory) {
  CacheConfig l1_cfg;
  l1_cfg.size_bytes = 1024;
  l1_cfg.ways = 2;
  l1_cfg.line_bytes = 64;
  CacheConfig l2_cfg;
  l2_cfg.size_bytes = 4096;
  l2_cfg.ways = 4;
  l2_cfg.line_bytes = 64;

  MainMemory mem;
  Cache l2(l2_cfg, mem);
  Cache l1(l1_cfg, l2);

  std::map<u64, u8> golden;
  Rng rng(31337);
  for (int i = 0; i < 30000; ++i) {
    const u64 addr = rng.uniform(4096) * 8;
    if (rng.chance(0.5)) {
      const u64 value = rng.next();
      l1.access(MemAccess::write(addr, value, 8));
      for (u8 b = 0; b < 8; ++b) {
        golden[addr + b] = static_cast<u8>(value >> (8 * b));
      }
    } else {
      l1.access(MemAccess::read(addr));
    }
  }
  l1.flush();
  l2.flush();
  for (const auto& [addr, byte] : golden) {
    ASSERT_EQ(mem.peek(addr), byte) << "byte at 0x" << std::hex << addr;
  }
}

}  // namespace
}  // namespace cnt
