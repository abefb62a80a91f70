// Access events: the observation interface between the functional cache
// and the energy-accounting policies.
//
// The functional behaviour of a cache is identical under every encoding
// policy (encoding only changes what the bits *physically* look like), so
// the simulator runs the functional cache once and broadcasts each access
// to all registered sinks. Every energy policy -- baseline CNFET, CMOS,
// static-invert, adaptive CNT-Cache, oracle -- observes the *same* run,
// which makes comparisons exact rather than statistically matched.
//
// Spans in an event point into cache-internal scratch storage and are valid
// only for the duration of the callback.
#pragma once

#include <span>

#include "common/access.hpp"
#include "common/types.hpp"

namespace cnt {

enum class AccessKind : u8 {
  kReadHit,
  kWriteHit,
  kReadMissFill,   ///< read miss, line filled (possibly evicting)
  kWriteMissFill,  ///< write miss with write-allocate
  kWriteAround,    ///< write miss with no-write-allocate (bypasses array)
};

/// Per-array-read fault tally produced by a LineFaultHook (src/cache/
/// fault_hook.hpp) and carried on the event so energy policies can charge
/// protection work. `flips` counts raw upsets seen by the read;
/// `corrected` / `detected` / `silent` partition them by protection
/// outcome (silent bits remain in the returned data -- real SDC).
struct LineFaultReport {
  u32 flips = 0;
  u32 corrected = 0;
  u32 detected = 0;  ///< detection events (recovered by refetch)
  u32 silent = 0;

  void add(const LineFaultReport& o) noexcept {
    flips += o.flips;
    corrected += o.corrected;
    detected += o.detected;
    silent += o.silent;
  }
};

[[nodiscard]] constexpr const char* to_string(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::kReadHit: return "read_hit";
    case AccessKind::kWriteHit: return "write_hit";
    case AccessKind::kReadMissFill: return "read_miss";
    case AccessKind::kWriteMissFill: return "write_miss";
    case AccessKind::kWriteAround: return "write_around";
  }
  return "?";
}

struct AccessEvent {
  AccessKind kind = AccessKind::kReadHit;
  MemOp op = MemOp::kRead;
  u64 addr = 0;
  u32 set = 0;
  u32 way = 0;      ///< valid except for kWriteAround
  u32 offset = 0;   ///< byte offset of the word within the line
  u8 size = 0;      ///< word size in bytes

  /// Stored tag value of the accessed line (post-access).
  u64 tag = 0;

  /// Logical line contents before the access. For fills this is the
  /// previous physical occupant of the way (the evicted line's data, or
  /// zeros when the way was invalid). Empty for kWriteAround.
  std::span<const u8> line_before;
  /// Logical line contents after the access. Empty for kWriteAround.
  std::span<const u8> line_after;

  /// Ones profile, kept per line by the cache so every sink can read '1'
  /// counts instead of re-popcounting the same bytes (see
  /// docs/architecture.md). ones_after[w] is the '1' count of the w-th
  /// 8-byte word of line_after, and ones_after_total their sum (the
  /// line's popcount). ones_before is the same profile of line_before,
  /// filled only when the event evicts a dirty victim (the one case a
  /// sink prices the before image); empty otherwise. For kWriteAround
  /// both are empty and the total is 0. Same lifetime as the line spans.
  std::span<const u8> ones_after;
  usize ones_after_total = 0;
  std::span<const u8> ones_before;

  /// Version of the stored line_after bytes. The cache draws versions from
  /// one counter per cache, starting at 1, and gives a line a new one
  /// whenever its bytes may have changed: a fill, a store, or an array read
  /// whose fault hook reported silent flips (corrected and detected flips
  /// are repaired in place). Two events of one cache with the
  /// same nonzero version therefore carry identical line_after bytes and
  /// ones profiles, so a sink may reuse whatever it derived from them.
  /// 0 means "unknown, never reuse": kWriteAround events and synthetic
  /// events carry it.
  u64 line_version = 0;

  /// Tag-array lookup cost inputs: total tag+state bits read across the
  /// set's ways this access, and how many of them were '1'.
  usize tag_bits_read = 0;
  usize tag_ones_read = 0;
  /// Tag bits written on a fill (0 otherwise) and their '1' count.
  usize tag_bits_written = 0;
  usize tag_ones_written = 0;

  /// Eviction side effects (fills only).
  bool evicted_valid = false;
  bool evicted_dirty = false;
  u64 evicted_tag = 0;
  /// With CacheConfig::sector_writeback: bit i set means the victim's i-th
  /// 8-byte word was dirty (must be read out for the writeback). Without
  /// sectoring, all words of a dirty victim count as dirty.
  u64 evicted_dirty_words = 0;

  /// Idle array slots following this access (see IdleModel); the
  /// CNT-Cache deferred-update FIFOs drain during these.
  u32 idle_slots = 0;

  /// Fault-campaign outcome of the array reads behind this access (the
  /// demand read and, on fills, the victim writeback read). All-zero when
  /// no fault hook is installed, so policies can charge correction energy
  /// unconditionally from these counters.
  LineFaultReport fault;

  [[nodiscard]] bool is_fill() const noexcept {
    return kind == AccessKind::kReadMissFill ||
           kind == AccessKind::kWriteMissFill;
  }
  [[nodiscard]] bool is_hit() const noexcept {
    return kind == AccessKind::kReadHit || kind == AccessKind::kWriteHit;
  }
};

/// Observer interface. Sinks must not mutate the cache.
class AccessSink {
 public:
  virtual ~AccessSink() = default;
  virtual void on_access(const AccessEvent& ev) = 0;
};

}  // namespace cnt
