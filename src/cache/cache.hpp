// Set-associative, value-carrying cache model.
//
// This is the gem5-style functional substrate the paper's evaluation
// extends: it stores real line contents (energy depends on the bits), does
// write-back/write-allocate by default, and broadcasts every access as an
// AccessEvent to registered sinks (the energy policies).
//
// Line metadata is laid out structure-of-arrays (docs/performance.md): all
// tags in one contiguous array, valid/dirty state as per-set bit masks,
// per-line sector-dirty words in their own array, and every line's data in
// a single flat byte buffer. A set's lookup touches one short run of tags
// plus two mask words instead of striding across array-of-struct Line
// records, and the whole data store is one allocation.
//
// A Cache is itself a MemoryLevel, so hierarchies compose: L1 -> L2 -> DRAM.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/cache_stats.hpp"
#include "cache/fault_hook.hpp"
#include "cache/main_memory.hpp"
#include "cache/replacement.hpp"
#include "common/access.hpp"
#include "common/access_event.hpp"

namespace cnt {

class Cache final : public MemoryLevel {
 public:
  /// `next` must outlive the cache.
  Cache(CacheConfig cfg, MemoryLevel& next);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Register an observer (not owned; must outlive the cache).
  void add_sink(AccessSink& sink);

  /// Install a fault-injection hook (not owned; must outlive the cache).
  /// nullptr (the default) keeps the cache bit-identical to a fault-free
  /// build. The hook fires on line fill, on the array read behind a read
  /// hit, and on the victim read feeding a dirty writeback; see
  /// cache/fault_hook.hpp for the contract. The demand word of a miss is
  /// served critical-word-first from the fill path, so fills do not incur
  /// an array read.
  void set_fault_hook(LineFaultHook* hook) noexcept { fault_hook_ = hook; }

  /// CPU-side access. Precondition: a.valid() and the word lies within one
  /// line.
  void access(const MemAccess& a);

  /// Warm the set `addr` maps to (tag run, state masks, line versions and
  /// ones profiles, every way's data line) without touching any simulator
  /// state. The replay loop issues this a few accesses ahead
  /// (docs/performance.md): the data store is one flat multi-MiB buffer, so
  /// an unwarmed access stalls on DRAM for the line it hits as surely as a
  /// miss stalls on the fill source.
  void prefetch(u64 addr) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const u32 set = static_cast<u32>((addr >> offset_bits_) & set_mask_);
    const usize first = static_cast<usize>(set) * ways_;
    __builtin_prefetch(tags_.data() + first, 0, 1);
    __builtin_prefetch(valid_mask_.data() + set, 0, 1);
    __builtin_prefetch(versions_.data() + first, 0, 1);
    __builtin_prefetch(profile_totals_.data() + first, 0, 1);
    __builtin_prefetch(profiles_.data() + first * profile_words_, 0, 1);
    const u8* set_data = data_.data() + first * line_bytes_;
    for (usize b = 0; b < ways_ * line_bytes_; b += 64) {
      __builtin_prefetch(set_data + b, 0, 1);
    }
#else
    (void)addr;
#endif
  }

  /// Read the current value at `addr` from the cache *without* side effects
  /// (no allocation, no stats, no events) -- test/debug helper. Returns 0
  /// when the line is not resident; use find_way() to distinguish.
  [[nodiscard]] u64 peek_word(u64 addr, u8 size) const;

  // MemoryLevel interface (traffic from an upper-level cache).
  void read_line(u64 line_addr, std::span<u8> out) override;
  void write_line(u64 line_addr, std::span<const u8> data) override;
  void write_word(u64 addr, u64 value, u8 size) override;

  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Flush every dirty line to the next level (end-of-run accounting).
  /// Does not emit events (the paper's dynamic-energy windows cover the
  /// simulated execution, not the teardown).
  void flush();

  /// Introspection for tests: contents of a (set, way).
  struct LineView {
    bool valid;
    bool dirty;
    u64 tag;
    std::span<const u8> data;
  };
  [[nodiscard]] LineView line_view(u32 set, u32 way) const;
  /// Locate `addr` in the cache, if resident.
  [[nodiscard]] std::optional<u32> find_way(u64 addr) const;

 private:
  [[nodiscard]] usize line_index(u32 set, u32 way) const noexcept {
    return static_cast<usize>(set) * ways_ + way;
  }
  [[nodiscard]] std::span<u8> line_data(u32 set, u32 way) noexcept {
    return {data_.data() + line_index(set, way) * line_bytes_, line_bytes_};
  }
  [[nodiscard]] std::span<const u8> line_data(u32 set, u32 way) const noexcept {
    return {data_.data() + line_index(set, way) * line_bytes_, line_bytes_};
  }
  [[nodiscard]] bool is_valid(u32 set, u32 way) const noexcept {
    return (valid_mask_[set] >> way) & 1u;
  }
  [[nodiscard]] bool is_dirty(u32 set, u32 way) const noexcept {
    return (dirty_mask_[set] >> way) & 1u;
  }
  void set_dirty(u32 set, u32 way, bool dirty) noexcept {
    if (dirty) {
      dirty_mask_[set] |= u64{1} << way;
    } else {
      dirty_mask_[set] &= ~(u64{1} << way);
    }
  }

  /// Way holding (set, tag), or ways_ when not resident.
  [[nodiscard]] u32 lookup(u32 set, u64 tag) const noexcept {
    const u64* tags = tags_.data() + static_cast<usize>(set) * ways_;
    const u64 vmask = valid_mask_[set];
    for (u32 w = 0; w < ways_; ++w) {
      if (((vmask >> w) & 1u) && tags[w] == tag) return w;
    }
    return static_cast<u32>(ways_);
  }

  /// Core path shared by CPU accesses and upper-level line traffic.
  /// For full-line ops, offset=0 and size=line_bytes with `data` supplied.
  /// Returns the way that hit or was filled, or ways_ for a write-around.
  u32 access_impl(u64 addr, MemOp op, u32 offset, u8 size, u64 value,
                  std::span<const u8> full_line_data);

  [[nodiscard]] u32 choose_victim(u32 set);
  /// One pass over the set's tag run that both locates `tag` and accounts
  /// the tag-array read on `ev` (bits + stored ones). Returns the hit way,
  /// or ways_ on a miss.
  [[nodiscard]] u32 probe_tags(u32 set, u64 tag, AccessEvent& ev) const;
  /// The line at `li` got new bytes: give it the next version.
  void bump_version(usize li) noexcept { versions_[li] = ++last_version_; }
  [[nodiscard]] u8* profile_of(usize li) noexcept {
    return profiles_.data() + li * profile_words_;
  }
  /// Point the event at its line's ones profile (see AccessEvent),
  /// recounting it first when the access changed the line, and broadcast
  /// it. With no sink attached there is nobody to read the profile, so
  /// both steps are skipped (add_sink recounts every line).
  void emit(AccessEvent& ev, bool line_changed);

  // Downstream traffic helpers: when the next level is the backing store
  // itself (the common single-level topology), call it through a concrete
  // MainMemory* -- the class is final and its line ops are defined in its
  // header, so these devirtualize and inline into the miss path.
  void next_read_line(u64 line_addr, std::span<u8> out) {
    if (direct_mem_ != nullptr) {
      direct_mem_->read_line(line_addr, out);
    } else {
      next_.read_line(line_addr, out);
    }
  }
  void next_write_line(u64 line_addr, std::span<const u8> data) {
    if (direct_mem_ != nullptr) {
      direct_mem_->write_line(line_addr, data);
    } else {
      next_.write_line(line_addr, data);
    }
  }
  void next_write_word(u64 addr, u64 value, u8 size) {
    if (direct_mem_ != nullptr) {
      direct_mem_->write_word(addr, value, size);
    } else {
      next_.write_word(addr, value, size);
    }
  }
  [[nodiscard]] u32 idle_slots_for(bool miss);

  // Replacement fast paths: LRU is the default policy and is final with
  // in-class bodies, so routing through a concrete pointer (when the
  // configured policy is LRU) inlines the touch/victim calls.
  void repl_on_access(u32 set, u32 way) {
    if (direct_lru_ != nullptr) {
      direct_lru_->on_access(set, way);
    } else {
      repl_->on_access(set, way);
    }
  }
  void repl_on_fill(u32 set, u32 way) {
    if (direct_lru_ != nullptr) {
      direct_lru_->on_fill(set, way);
    } else {
      repl_->on_fill(set, way);
    }
  }
  [[nodiscard]] u32 repl_victim(u32 set) {
    if (direct_lru_ != nullptr) return direct_lru_->victim(set);
    return repl_->victim(set);
  }

  CacheConfig cfg_;
  MemoryLevel& next_;
  MainMemory* direct_mem_ = nullptr;  ///< next_ when it is the backing store

  // Geometry derived once from cfg_ (the hot path never re-derives bit
  // widths from the config).
  usize ways_ = 0;
  usize line_bytes_ = 0;
  u32 offset_bits_ = 0;
  u32 set_bits_ = 0;
  u64 set_mask_ = 0;
  usize tag_state_bits_ = 0;  ///< tag_bits() + valid + dirty

  // Structure-of-arrays line metadata (see header comment).
  std::vector<u64> tags_;         ///< [sets * ways]
  std::vector<u64> valid_mask_;   ///< [sets], bit w = way w valid
  std::vector<u64> dirty_mask_;   ///< [sets], bit w = way w dirty
  std::vector<u64> dirty_words_;  ///< [sets * ways] per-8B-word dirty bits
  std::vector<u8> data_;          ///< [sets * ways * line_bytes]

  std::unique_ptr<ReplacementPolicy> repl_;
  LruPolicy* direct_lru_ = nullptr;  ///< repl_ when the policy is LRU
  std::vector<AccessSink*> sinks_;
  LineFaultHook* fault_hook_ = nullptr;
  CacheStats stats_;
  u64 hit_counter_ = 0;  // for IdleModel.hit_idle_period
  std::vector<u32> mru_way_;  // per-set MRU way (way prediction)

  // Reused event object (see access_impl): avoids re-zero-initializing
  // the full AccessEvent on every access.
  AccessEvent scratch_ev_;
  // Scratch buffer backing the event line_before span on mutating
  // accesses (read hits alias the stored line directly: its contents are
  // the before image by definition).
  std::vector<u8> scratch_before_;
  // Shared all-zero line. Fill events with no dirty victim alias it as
  // line_before: the content of a clean or cold eviction's before image is
  // unobservable (every consumer is gated on evicted_dirty), so the copy
  // it used to cost is skipped.
  std::vector<u8> zeros_;
  // Per-line content versions and ones profiles (see AccessEvent): a
  // line's profile is recounted only when its version moves, so a read
  // hit on an unchanged line costs no popcount.
  std::vector<u64> versions_;        ///< [sets * ways]
  u64 last_version_ = 0;             ///< last version handed out
  usize profile_words_ = 0;          ///< line_bytes / 8
  std::vector<u8> profiles_;         ///< [sets * ways * profile_words_]
  std::vector<u32> profile_totals_;  ///< [sets * ways] line popcounts
  // Preallocated backing for a dirty victim's ones profile, which the
  // fill overwrites in profiles_ before the event is broadcast.
  std::vector<u8> ones_before_;
};

}  // namespace cnt
