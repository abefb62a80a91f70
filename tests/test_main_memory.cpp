#include "cache/main_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace cnt {
namespace {

TEST(MainMemory, UnwrittenReadsZero) {
  MainMemory mem;
  std::array<u8, 64> line{};
  line.fill(0xAB);
  mem.read_line(0x1000, line);
  for (const u8 b : line) EXPECT_EQ(b, 0);
  EXPECT_EQ(mem.peek(0xDEAD0), 0);
}

TEST(MainMemory, LineRoundTrip) {
  MainMemory mem;
  std::array<u8, 64> out{};
  std::array<u8, 64> in{};
  for (usize i = 0; i < in.size(); ++i) in[i] = static_cast<u8>((i * 3) & 0xffU);
  mem.write_line(0x2000, in);
  mem.read_line(0x2000, out);
  EXPECT_EQ(in, out);
}

TEST(MainMemory, LinesAtPageEdges) {
  MainMemory mem;
  std::array<u8, 128> in{};
  for (usize i = 0; i < in.size(); ++i) in[i] = static_cast<u8>((i + 1) & 0xffU);
  // Last aligned 128 B line of page 0 and first line of page 1.
  mem.write_line(4096 - 128, in);
  mem.write_line(4096, in);
  std::array<u8, 128> out{};
  mem.read_line(4096 - 128, out);
  EXPECT_EQ(in, out);
  mem.read_line(4096, out);
  EXPECT_EQ(in, out);
  // Residency is O(bytes touched): two 128 B lines are four granules.
  EXPECT_EQ(mem.resident_granules(), 2 * 128 / MainMemory::kGranuleBytes);
}

TEST(MainMemory, WordWrites) {
  MainMemory mem;
  mem.write_word(0x100, 0x1122334455667788ULL, 8);
  EXPECT_EQ(mem.peek_word(0x100, 8), 0x1122334455667788ULL);
  EXPECT_EQ(mem.peek(0x100), 0x88);  // little-endian
  EXPECT_EQ(mem.peek(0x107), 0x11);
  mem.write_word(0x100, 0xAB, 1);
  EXPECT_EQ(mem.peek_word(0x100, 8), 0x11223344556677ABULL);
}

TEST(MainMemory, LoadSegments) {
  MainMemory mem;
  std::vector<MemorySegment> init;
  MemorySegment seg;
  seg.base = 0x3000;
  seg.bytes = {1, 2, 3, 4, 5};
  init.push_back(seg);
  MemorySegment seg2;
  seg2.base = 0x8FFE;  // crosses page boundary at 0x9000
  seg2.bytes = {9, 9, 9, 9};
  init.push_back(seg2);
  mem.load(init);
  EXPECT_EQ(mem.peek(0x3000), 1);
  EXPECT_EQ(mem.peek(0x3004), 5);
  EXPECT_EQ(mem.peek(0x8FFE), 9);
  EXPECT_EQ(mem.peek(0x9001), 9);
}

TEST(MainMemory, TrafficCounters) {
  MainMemory mem;
  std::array<u8, 64> buf{};
  mem.read_line(0, buf);
  mem.read_line(64, buf);
  mem.write_line(0, buf);
  mem.write_word(8, 1, 8);
  EXPECT_EQ(mem.traffic().line_reads, 2u);
  EXPECT_EQ(mem.traffic().line_writes, 1u);
  EXPECT_EQ(mem.traffic().word_writes, 1u);
}

TEST(MainMemory, PokePeek) {
  MainMemory mem;
  mem.poke(0x42, 0x7F);
  EXPECT_EQ(mem.peek(0x42), 0x7F);
}

TEST(MainMemory, SparsePages) {
  MainMemory mem;
  mem.poke(0, 1);
  mem.poke(1ULL << 30, 2);
  EXPECT_EQ(mem.resident_granules(), 2u);

  // A 1 GiB mostly-zero table costs one granule per record (two for the
  // record that straddles a granule edge), never its span.
  MemorySegment table;
  table.base = 1ULL << 32;
  table.span = 1ULL << 30;
  const std::array<u8, 8> rec = {1, 2, 3, 4, 5, 6, 7, 8};
  table.add_run(0, rec);
  table.add_run(4096 - 4, rec);
  table.add_run((1ULL << 30) - 8, rec);
  MainMemory sparse;
  sparse.load({&table, 1});
  EXPECT_EQ(sparse.resident_granules(), 4u);
  EXPECT_EQ(sparse.peek((1ULL << 32) + 4096 - 4), 1);
  EXPECT_EQ(sparse.peek((1ULL << 32) + 4096 + 3), 8);
  EXPECT_EQ(sparse.peek((1ULL << 32) + 4096 + 4), 0);
}

// ---------------------------------------------------------------------------
// Differential test: MainMemory against a naive byte map (absent bytes read
// as zero) over random loads and line/word/byte traffic. Addresses fall in
// a few small windows, so segments overlap, runs and lines straddle 64 B
// granule and 4 KiB page edges, and the same bytes are rewritten often.

struct ByteMapModel {
  std::map<u64, u8> bytes;
  u64 line_reads = 0;
  u64 line_writes = 0;
  u64 word_writes = 0;

  [[nodiscard]] u8 get(u64 addr) const {
    const auto it = bytes.find(addr);
    return it == bytes.end() ? u8{0} : it->second;
  }
  void load(const std::vector<MemorySegment>& segs) {
    for (const MemorySegment& seg : segs) {
      for (usize i = 0; i < seg.bytes.size(); ++i) {
        bytes[seg.base + i] = seg.bytes[i];
      }
      usize pos = 0;
      for (const auto& run : seg.runs) {
        for (u64 i = 0; i < run.length; ++i) {
          bytes[seg.base + run.offset + i] = seg.pool[pos++];
        }
      }
    }
  }
};

// Segments and lines start in the first kWindow bytes of a region and end
// within 5 pages of its start, which expect_same() compares byte by byte.
// The last region ends 3 pages below the top of the address space.
constexpr u64 kWindow = 3 * 4096;
constexpr std::array<u64, 4> kRegions = {
    0, 5 * 4096, 1ULL << 30, ~u64{0} - 8 * 4096 + 1};

u64 random_addr(Rng& rng) {
  return kRegions[rng.uniform(kRegions.size())] + rng.uniform(kWindow);
}

// Random payload of `n` bytes; every fourth payload is all zeros.
std::vector<u8> payload(Rng& rng, usize n) {
  std::vector<u8> out(n, 0);
  if (rng.uniform(4) != 0) {
    for (u8& b : out) b = rng.next_byte();
  }
  return out;
}

// An offset at or after `offset` that often lands just below a 64 B or
// 4 KiB edge of the absolute address, so a run placed there straddles it.
u64 near_edge(Rng& rng, u64 base, u64 offset) {
  const u64 align = rng.uniform(2) == 0 ? 64 : 4096;
  if (rng.uniform(3) == 0) return offset;
  const u64 edge = (base + offset + align) & ~(align - 1);
  return std::max(offset, edge - base - rng.uniform_range(1, 8));
}

MemorySegment random_segment(Rng& rng) {
  MemorySegment seg;
  seg.base = random_addr(rng);
  if (rng.uniform(3) != 0) seg.bytes = payload(rng, rng.uniform(300));
  if (rng.uniform(2) == 0) return seg;  // dense (possibly empty)
  seg.span = std::max<u64>(seg.bytes.size(), 2 * 4096);
  u64 offset = rng.uniform(128);
  const u64 runs = rng.uniform_range(1, 24);
  for (u64 r = 0; r < runs; ++r) {
    offset = near_edge(rng, seg.base, offset);
    const std::vector<u8> p = payload(rng, rng.uniform(24));  // may be empty
    if (offset + p.size() > seg.span) break;
    seg.add_run(offset, p);
    offset += p.size() + rng.uniform(200);
  }
  return seg;
}

void expect_same(const MainMemory& mem, const ByteMapModel& model) {
  ASSERT_EQ(mem.traffic().line_reads, model.line_reads);
  ASSERT_EQ(mem.traffic().line_writes, model.line_writes);
  ASSERT_EQ(mem.traffic().word_writes, model.word_writes);
  for (const u64 region : kRegions) {
    for (u64 a = region; a < region + kWindow + 2 * 4096; ++a) {
      ASSERT_EQ(mem.peek(a), model.get(a)) << "byte at 0x" << std::hex << a;
    }
  }
}

TEST(MainMemory, MatchesByteMapModel) {
  constexpr std::array<usize, 3> kLineBytes = {32, 64, 128};
  constexpr std::array<u8, 4> kWordBytes = {1, 2, 4, 8};
  for (u64 seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    MainMemory mem;
    ByteMapModel model;
    std::vector<u8> buf(128);
    for (int round = 0; round < 2; ++round) {
      std::vector<MemorySegment> segs(rng.uniform_range(1, 6));
      for (MemorySegment& seg : segs) seg = random_segment(rng);
      mem.load(segs);
      model.load(segs);
      for (int op = 0; op < 400; ++op) {
        const u64 addr = random_addr(rng);
        switch (rng.uniform(5)) {
          case 0: {  // read_line
            const usize n = kLineBytes[rng.uniform(kLineBytes.size())];
            const u64 line = addr & ~static_cast<u64>(n - 1);
            mem.read_line(line, {buf.data(), n});
            ++model.line_reads;
            for (usize i = 0; i < n; ++i) {
              ASSERT_EQ(buf[i], model.get(line + i)) << "op " << op;
            }
            break;
          }
          case 1: {  // write_line
            const usize n = kLineBytes[rng.uniform(kLineBytes.size())];
            const u64 line = addr & ~static_cast<u64>(n - 1);
            const std::vector<u8> data = payload(rng, n);
            mem.write_line(line, data);
            ++model.line_writes;
            for (usize i = 0; i < n; ++i) model.bytes[line + i] = data[i];
            break;
          }
          case 2: {  // write_word
            const u8 size = kWordBytes[rng.uniform(kWordBytes.size())];
            const u64 at = addr & ~static_cast<u64>(size - 1);
            const u64 value = rng.next();
            mem.write_word(at, value, size);
            ++model.word_writes;
            for (u8 b = 0; b < size; ++b) {
              model.bytes[at + b] = static_cast<u8>((value >> (8 * b)) & 0xffU);
            }
            break;
          }
          case 3: {  // poke
            const u8 v = rng.next_byte();
            mem.poke(addr, v);
            model.bytes[addr] = v;
            break;
          }
          default:  // peek
            ASSERT_EQ(mem.peek(addr), model.get(addr)) << "op " << op;
            break;
        }
      }
      expect_same(mem, model);
    }
  }
}

}  // namespace
}  // namespace cnt
