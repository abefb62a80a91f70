// Cache geometry and policy configuration.
#pragma once

#include <string>

#include "common/types.hpp"
#include "energy/array_model.hpp"

namespace cnt {

enum class WritePolicy : u8 {
  kWriteBack,     ///< dirty lines written to the next level on eviction
  kWriteThrough,  ///< every store also forwarded to the next level
};

enum class AllocPolicy : u8 {
  kWriteAllocate,    ///< write misses fill the line
  kNoWriteAllocate,  ///< write misses go around the cache
};

enum class ReplKind : u8 { kLru, kFifo, kRandom, kTreePlru };

[[nodiscard]] const char* to_string(WritePolicy p) noexcept;
[[nodiscard]] const char* to_string(AllocPolicy p) noexcept;
[[nodiscard]] const char* to_string(ReplKind k) noexcept;

/// Idle-slot model for the deferred-update FIFOs: a trace has no cycle
/// timing, so idle array slots are derived from the access stream. A miss
/// stalls the core for the miss penalty (the array sits idle while the fill
/// is in flight), and on average the core issues a memory access only every
/// few cycles, so every `hit_idle_period`-th hit also yields one idle slot.
struct IdleModel {
  u32 idle_per_miss = 8;
  u32 hit_idle_period = 4;  ///< 0 disables hit-side idle slots
};

struct CacheConfig {
  std::string name = "L1D";
  usize size_bytes = 32 * 1024;
  usize ways = 4;
  usize line_bytes = 64;
  /// Physical address width; 40 bits (1 TiB) matches the embedded-class
  /// systems CNFET caches target and sets the stored tag width.
  u32 addr_bits = 40;
  WritePolicy write_policy = WritePolicy::kWriteBack;
  AllocPolicy alloc_policy = AllocPolicy::kWriteAllocate;
  ReplKind replacement = ReplKind::kLru;
  IdleModel idle;
  u64 replacement_seed = 0x7ef1ace;  ///< for ReplKind::kRandom
  /// MRU way prediction (energy model): probe the set's most-recently-used
  /// way's tag first and read the other ways' tags only on a first-probe
  /// miss. Classic low-power-cache technique; reduces the tag-side energy
  /// that adaptive data encoding cannot touch. Off by default (the paper's
  /// baseline has no way prediction).
  bool way_prediction = false;
  /// Sectored writebacks (energy model): track per-word dirty bits and, on
  /// a dirty eviction, read only the dirty words out of the array (the
  /// clean words need no array access -- the next level already has them).
  /// Off by default. Functional behaviour is unchanged; only the
  /// writeback-read accounting in the events narrows.
  bool sector_writeback = false;

  [[nodiscard]] usize sets() const noexcept {
    return size_bytes / (ways * line_bytes);
  }
  [[nodiscard]] u32 offset_bits() const noexcept;
  [[nodiscard]] u32 set_bits() const noexcept;
  [[nodiscard]] u32 tag_bits() const noexcept;

  [[nodiscard]] u64 line_addr(u64 addr) const noexcept {
    return addr & ~static_cast<u64>(line_bytes - 1);
  }
  [[nodiscard]] u32 set_index(u64 addr) const noexcept;
  [[nodiscard]] u64 tag_of(u64 addr) const noexcept;
  [[nodiscard]] u32 offset_of(u64 addr) const noexcept {
    return static_cast<u32>(addr & (line_bytes - 1));
  }
  /// Reconstruct a line-aligned address from tag + set.
  [[nodiscard]] u64 addr_of(u64 tag, u32 set) const noexcept;

  /// Validate invariants (power-of-two sizes, geometry divides evenly,
  /// address width fits). Throws ValueError (Errc::kRange) on violation.
  void validate() const;
};

/// Derive the energy-model geometry of a cache (meta_bits = 0; policies
/// that widen the line set it themselves).
[[nodiscard]] ArrayGeometry geometry_of(const CacheConfig& cfg);

}  // namespace cnt
