// Backing-store model: sparse line-granular main memory plus the
// line-granular interface caches use to talk to the level below them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/memory_segment.hpp"
#include "common/types.hpp"

namespace cnt {

/// The downstream interface of a cache: line fills/writebacks plus word
/// writes (for write-through / write-around traffic).
class MemoryLevel {
 public:
  virtual ~MemoryLevel() = default;

  /// Fetch `out.size()` bytes starting at line-aligned `line_addr`.
  virtual void read_line(u64 line_addr, std::span<u8> out) = 0;
  /// Store a full line at line-aligned `line_addr` (writeback).
  virtual void write_line(u64 line_addr, std::span<const u8> data) = 0;
  /// Store a single word (write-through / no-allocate write miss path).
  virtual void write_word(u64 addr, u64 value, u8 size) = 0;
};

/// The traffic a MainMemory absorbed: what reached DRAM.
struct MemoryTraffic {
  u64 line_reads = 0;
  u64 line_writes = 0;
  u64 word_writes = 0;
};

/// Sparse memory image. Unwritten bytes read as zero. Tracks traffic
/// counters so experiments can report line fills / writebacks reaching DRAM.
///
/// Storage comes in 64-byte granules, one default cache line each: a flat
/// hash index (granule number -> arena slot) over an arena of fixed-size
/// chunks. Only granules a load or a write touches exist, so a sparse
/// server-traffic image of 8-byte records costs about one granule per
/// record. Chunks never move once allocated, so a granule pointer stays
/// valid as the arena grows; a one-entry cache of the last granule
/// touched skips the probe when consecutive sparse runs or word writes
/// land in the same granule.
class MainMemory final : public MemoryLevel {
 public:
  static constexpr usize kGranuleBytes = 64;

  MainMemory() = default;

  /// Load a set of initial data segments (a workload's init image). The
  /// index is sized once for every granule the image touches, so the copy
  /// never rehashes.
  void load(std::span<const MemorySegment> segments);

  // The line/word interface is defined in-class: MainMemory is final, so
  // a caller holding a MainMemory* (the Cache keeps one when its next
  // level is the backing store) devirtualizes these and inlines the
  // granule probe + copy straight into its miss path.
  void read_line(u64 line_addr, std::span<u8> out) override {
    assert(line_addr % out.size() == 0);
    ++traffic_.line_reads;
    u64 addr = line_addr;
    usize off = 0;
    while (off < out.size()) {
      const usize g_off = addr % kGranuleBytes;
      const usize chunk = std::min(kGranuleBytes - g_off, out.size() - off);
      if (const u8* g = granule_if_present(addr)) {
        std::memcpy(out.data() + off, g + g_off, chunk);
      } else {
        std::memset(out.data() + off, 0, chunk);
      }
      addr += chunk;
      off += chunk;
    }
  }
  void write_line(u64 line_addr, std::span<const u8> data) override {
    assert(line_addr % data.size() == 0);
    ++traffic_.line_writes;
    copy_in(line_addr, data.data(), data.size());
  }
  void write_word(u64 addr, u64 value, u8 size) override {
    assert(size <= 8 && addr % size == 0);
    ++traffic_.word_writes;
    u8* g = granule(addr);
    const usize g_off = addr % kGranuleBytes;
    // Natural alignment guarantees the word does not straddle a granule.
    for (usize b = 0; b < size; ++b) {
      g[g_off + b] = static_cast<u8>(value >> (8 * b));
    }
  }

  /// Direct byte access (test/introspection helpers; no traffic counted).
  [[nodiscard]] u8 peek(u64 addr) const;
  void poke(u64 addr, u8 value);
  [[nodiscard]] u64 peek_word(u64 addr, u8 size) const;

  /// Hint that the line at `addr` is about to be filled. The replay loop
  /// issues this a few accesses ahead (see docs/performance.md) for every
  /// access, so it only warms the index's home slot of each granule of
  /// the line -- the load a fill's probe would stall on -- without a
  /// probe and without touching any state or counters.
  void prefetch_line(u64 addr, usize line_bytes) const noexcept {
    for (usize i = 0; i < line_bytes; i += kGranuleBytes) {
      index_.prefetch((addr + i) / kGranuleBytes);
    }
  }

  [[nodiscard]] const MemoryTraffic& traffic() const noexcept {
    return traffic_;
  }
  /// Granules allocated so far (each kGranuleBytes of storage).
  [[nodiscard]] usize resident_granules() const noexcept { return granules_; }

 private:
  static constexpr usize kChunkGranules = 1024;  ///< 64 KiB arena chunks
  static constexpr u32 kNoSlot = ~u32{0};

  void load_segment(const MemorySegment& seg);
  void copy_in(u64 addr, const u8* src, usize n) {
    usize off = 0;
    while (off < n) {
      u8* g = granule(addr);
      const usize g_off = addr % kGranuleBytes;
      const usize chunk = std::min(kGranuleBytes - g_off, n - off);
      std::memcpy(g + g_off, src + off, chunk);
      addr += chunk;
      off += chunk;
    }
  }
  [[nodiscard]] u8* slot_data(u32 slot) const noexcept {
    return arena_[slot / kChunkGranules].get() +
           (slot % kChunkGranules) * kGranuleBytes;
  }
  /// Granule holding `addr`, allocated (zeroed) on first touch.
  [[nodiscard]] u8* granule(u64 addr) {
    const u64 gn = addr / kGranuleBytes;
    if (gn == cached_granule_no_) return cached_granule_;
    return granule_slow(gn);
  }
  [[nodiscard]] u8* granule_slow(u64 gn);
  /// Granule holding `addr`, or nullptr when never written (hot variant;
  /// maintains the last-granule cache).
  [[nodiscard]] u8* granule_if_present(u64 addr) {
    const u64 gn = addr / kGranuleBytes;
    if (gn == cached_granule_no_) return cached_granule_;
    const u32* slot = index_.find(gn);
    if (slot == nullptr) return nullptr;
    cached_granule_no_ = gn;
    cached_granule_ = slot_data(*slot);
    return cached_granule_;
  }
  /// Cold const variant for peek(); does not touch the cache.
  [[nodiscard]] const u8* granule_if_present(u64 addr) const;

  U64Map<u32> index_;                          ///< granule number -> slot
  std::vector<std::unique_ptr<u8[]>> arena_;  ///< kChunkGranules per chunk
  u32 granules_ = 0;
  // Last granule touched (granule number + storage). ~0 never collides:
  // granule numbers are addr / 64 and addresses are at most 64-bit.
  u64 cached_granule_no_ = ~u64{0};
  u8* cached_granule_ = nullptr;

  MemoryTraffic traffic_;
};

}  // namespace cnt
