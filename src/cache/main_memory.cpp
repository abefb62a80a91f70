#include "cache/main_memory.hpp"

#include <cassert>
#include <cstring>

namespace cnt {

namespace {

/// Distinct granules a segment writes. Runs ascend and do not overlap, so
/// a run can share only its first granule with the previous run.
usize granules_needed(const MemorySegment& seg) {
  constexpr u64 kG = MainMemory::kGranuleBytes;
  usize n = seg.bytes.empty()
                ? 0
                : (seg.base + seg.bytes.size() - 1) / kG - seg.base / kG + 1;
  u64 prev_last = ~u64{0};
  for (const auto& run : seg.runs) {
    if (run.length == 0) continue;
    const u64 first = (seg.base + run.offset) / kG;
    const u64 last = (seg.base + run.offset + run.length - 1) / kG;
    n += last - first + (first == prev_last ? 0 : 1);
    prev_last = last;
  }
  return n;
}

}  // namespace

void MainMemory::load(std::span<const MemorySegment> segments) {
  usize granules = 0;
  for (const auto& seg : segments) granules += granules_needed(seg);
  index_.reserve(granules);
  for (const auto& seg : segments) load_segment(seg);
}

void MainMemory::load_segment(const MemorySegment& seg) {
  copy_in(seg.base, seg.bytes.data(), seg.bytes.size());
  // Sparse runs: only explicit payloads are materialized. The implicit-zero
  // remainder of the span needs no granules at all -- unmapped reads
  // already return zero -- so loading a mostly-zero multi-GiB table touches
  // memory proportional to its runs, not its span.
  usize pool_pos = 0;
  for (const auto& run : seg.runs) {
    copy_in(seg.base + run.offset, seg.pool.data() + pool_pos, run.length);
    pool_pos += run.length;
  }
}

u8 MainMemory::peek(u64 addr) const {
  if (const u8* g = granule_if_present(addr)) {
    return g[addr % kGranuleBytes];
  }
  return 0;
}

void MainMemory::poke(u64 addr, u8 value) {
  granule(addr)[addr % kGranuleBytes] = value;
}

u64 MainMemory::peek_word(u64 addr, u8 size) const {
  u64 v = 0;
  for (usize b = 0; b < size; ++b) {
    v |= static_cast<u64>(peek(addr + b)) << (8 * b);
  }
  return v;
}

u8* MainMemory::granule_slow(u64 gn) {
  u32& slot = index_.find_or_insert(gn, kNoSlot);
  if (slot == kNoSlot) {
    assert(granules_ < kNoSlot);
    if (granules_ % kChunkGranules == 0) {
      arena_.push_back(
          std::make_unique_for_overwrite<u8[]>(kChunkGranules * kGranuleBytes));
    }
    slot = granules_++;
    std::memset(slot_data(slot), 0, kGranuleBytes);
  }
  cached_granule_no_ = gn;
  cached_granule_ = slot_data(slot);
  return cached_granule_;
}

const u8* MainMemory::granule_if_present(u64 addr) const {
  const u32* slot = index_.find(addr / kGranuleBytes);
  return slot == nullptr ? nullptr : slot_data(*slot);
}

}  // namespace cnt
