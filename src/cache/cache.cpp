#include "cache/cache.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bits.hpp"

namespace cnt {

namespace {

// All-words-dirty mask for a line of `line_bytes`.
u64 full_dirty_mask(usize line_bytes) {
  const usize words = line_bytes / 8;
  return words >= 64 ? ~0ULL : (1ULL << words) - 1;
}

u64 load_word(std::span<const u8> line, u32 offset, u8 size) {
  u64 v = 0;
  for (usize b = 0; b < size; ++b) {
    v |= static_cast<u64>(line[offset + b]) << (8 * b);
  }
  return v;
}

void store_word(std::span<u8> line, u32 offset, u8 size, u64 value) {
  if constexpr (std::endian::native == std::endian::little) {
    // `value`'s memory image already is the little-endian byte sequence
    // the loop below would store.
    std::memcpy(line.data() + offset, &value, size);
    return;
  }
  for (usize b = 0; b < size; ++b) {
    line[offset + b] = static_cast<u8>(value >> (8 * b));
  }
}

}  // namespace

Cache::Cache(CacheConfig cfg, MemoryLevel& next)
    : cfg_(std::move(cfg)),
      next_(next),
      direct_mem_(dynamic_cast<MainMemory*>(&next)) {
  cfg_.validate();
  if (cfg_.ways > 64) {
    // The per-set valid/dirty bit masks hold one bit per way.
    throw std::invalid_argument(cfg_.name + ": at most 64 ways supported");
  }
  ways_ = cfg_.ways;
  line_bytes_ = cfg_.line_bytes;
  offset_bits_ = cfg_.offset_bits();
  set_bits_ = cfg_.set_bits();
  set_mask_ = cfg_.sets() - 1;
  tag_state_bits_ = cfg_.tag_bits() + 2;  // tag + valid + dirty

  const usize n = cfg_.sets() * ways_;
  tags_.assign(n, 0);
  valid_mask_.assign(cfg_.sets(), 0);
  dirty_mask_.assign(cfg_.sets(), 0);
  dirty_words_.assign(n, 0);
  data_.assign(n * line_bytes_, 0);

  repl_ = make_replacement(cfg_.replacement, cfg_.sets(), cfg_.ways,
                           cfg_.replacement_seed);
  direct_lru_ = dynamic_cast<LruPolicy*>(repl_.get());
  mru_way_.assign(cfg_.sets(), 0);
  scratch_before_.assign(line_bytes_, 0);
  zeros_.assign(line_bytes_, 0);
  // Every line starts as zeros at version 0, and the profile of zeros is
  // all zeros.
  versions_.assign(n, 0);
  profile_words_ = line_bytes_ / 8;
  profiles_.assign(n * profile_words_, 0);
  profile_totals_.assign(n, 0);
  ones_before_.assign(profile_words_, 0);
}

void Cache::add_sink(AccessSink& sink) {
  // Profiles are kept up to date only while a sink reads them: a cache
  // that ran with none recounts every line before its first sink.
  if (sinks_.empty() && stats_.accesses != 0) {
    for (usize li = 0; li < profile_totals_.size(); ++li) {
      profile_totals_[li] = static_cast<u32>(fill_ones_profile(
          {data_.data() + li * line_bytes_, line_bytes_}, profile_of(li)));
    }
  }
  sinks_.push_back(&sink);
}

void Cache::access(const MemAccess& a) {
  assert(a.valid());
  assert(cfg_.offset_of(a.addr) + a.size <= line_bytes_);
  access_impl(a.addr, a.op, cfg_.offset_of(a.addr), a.size, a.value, {});
}

void Cache::read_line(u64 line_addr, std::span<u8> out) {
  assert(out.size() == line_bytes_);
  // A read always leaves the line resident (read misses always allocate),
  // in the way the access hit or filled; copy it out.
  const u32 way = access_impl(line_addr, MemOp::kRead, 0, 0, 0, {});
  assert(way < ways_ && "line missing after read fill");
  const u32 set = static_cast<u32>((line_addr >> offset_bits_) & set_mask_);
  std::memcpy(out.data(), line_data(set, way).data(), line_bytes_);
}

void Cache::write_line(u64 line_addr, std::span<const u8> data) {
  assert(data.size() == line_bytes_);
  access_impl(line_addr, MemOp::kWrite, 0, 0, 0, data);
}

void Cache::write_word(u64 addr, u64 value, u8 size) {
  access_impl(addr, MemOp::kWrite, cfg_.offset_of(addr), size, value, {});
}

// cnt-hot
u32 Cache::access_impl(u64 addr, MemOp op, u32 offset, u8 size, u64 value,
                       std::span<const u8> full_line_data) {
  const u32 set = static_cast<u32>((addr >> offset_bits_) & set_mask_);
  const u64 tag = addr >> (offset_bits_ + set_bits_);
  const bool is_write = op == MemOp::kWrite;
  ++stats_.accesses;

  // Reuse one event object across accesses instead of zero-initializing
  // all of AccessEvent per call: the fields every path assigns are set
  // below (or in the taken branch), and the conditionally-written ones are
  // reset here. Sinks may not retain the event past the callback (see
  // events.hpp), so carrying the object over is invisible to them.
  AccessEvent& ev = scratch_ev_;
  ev.op = op;
  ev.addr = addr;
  ev.set = set;
  ev.offset = offset;
  ev.size = size;
  ev.tag = tag;
  ev.tag_bits_written = 0;
  ev.tag_ones_written = 0;
  ev.evicted_valid = false;
  ev.evicted_dirty = false;
  ev.evicted_tag = 0;
  ev.evicted_dirty_words = 0;
  ev.fault = LineFaultReport{};

  const u32 hit_way = probe_tags(set, tag, ev);
  if (hit_way < ways_) {
    // --- Hit ---
    const u32 w = hit_way;
    const usize li = line_index(set, w);
    std::span<u8> stored = line_data(set, w);
    bool changed = is_write;
    if (is_write) {
      // The before image must survive the mutation below: copy it out.
      std::memcpy(scratch_before_.data(), stored.data(), line_bytes_);
      if (!full_line_data.empty()) {
        std::memcpy(stored.data(), full_line_data.data(), line_bytes_);
      } else {
        store_word(stored, offset, size, value);
      }
      if (cfg_.write_policy == WritePolicy::kWriteBack) {
        dirty_mask_[set] |= u64{1} << w;
        dirty_words_[li] |=
            full_line_data.empty() ? (1ULL << (offset / 8))
                                   : full_dirty_mask(line_bytes_);
      } else {
        // Write-through: forward immediately; line stays clean.
        if (!full_line_data.empty()) {
          next_write_line(cfg_.line_addr(addr), stored);
        } else {
          next_write_word(addr, value, size);
        }
      }
      ++stats_.write_hits;
      ev.kind = AccessKind::kWriteHit;
      ev.line_before = scratch_before_;
    } else {
      if (fault_hook_ != nullptr) {
        // The demand read senses the array: faults manifest here, and
        // whatever the protection scheme misses is what the CPU gets.
        // Corrected and detected flips are repaired in place, so only a
        // silent flip leaves the bytes changed.
        ev.fault.add(fault_hook_->on_read(set, w, stored));
        changed = ev.fault.silent != 0;
      }
      ++stats_.read_hits;
      ev.kind = AccessKind::kReadHit;
      // A read leaves the line untouched (faults above mutate it before
      // the "before" image is taken), so before == after: alias the
      // stored line instead of copying it.
      ev.line_before = stored;
    }
    repl_on_access(set, w);
    mru_way_[set] = w;
    if (changed) bump_version(li);
    ev.way = w;
    ev.line_after = line_data(set, w);
    ev.line_version = versions_[li];
    ev.idle_slots = idle_slots_for(/*miss=*/false);
    emit(ev, changed);
    return w;
  }

  // --- Miss ---
  if (is_write && cfg_.alloc_policy == AllocPolicy::kNoWriteAllocate) {
    if (!full_line_data.empty()) {
      next_write_line(cfg_.line_addr(addr), full_line_data);
    } else {
      next_write_word(addr, value, size);
    }
    ++stats_.write_arounds;
    ++stats_.write_misses;
    ev.kind = AccessKind::kWriteAround;
    ev.way = 0;
    ev.line_before = {};
    ev.line_after = {};
    ev.line_version = 0;
    ev.idle_slots = idle_slots_for(/*miss=*/true);
    emit(ev, /*line_changed=*/false);
    return static_cast<u32>(ways_);
  }

  const u32 victim = choose_victim(set);
  const usize li = line_index(set, victim);
  std::span<u8> stored = line_data(set, victim);

  // Previous occupant -> line_before / eviction bookkeeping. Only a dirty
  // victim's before image is ever read (the writeback pricing); clean and
  // cold evictions alias the shared zero line and skip the copy.
  std::span<const u8> before = zeros_;
  if (is_valid(set, victim)) {
    const bool victim_dirty = is_dirty(set, victim);
    if (victim_dirty) {
      if (fault_hook_ != nullptr &&
          cfg_.write_policy == WritePolicy::kWriteBack) {
        // The writeback reads the victim out of the array; silent
        // corruption rides down the hierarchy with it.
        ev.fault.add(fault_hook_->on_read(set, victim, stored));
      }
      std::memcpy(scratch_before_.data(), stored.data(), line_bytes_);
      before = scratch_before_;
      // The fill below reuses the victim's profile slot, so its profile
      // moves to ones_before_ first. A victim read with silent flips
      // changed the bytes, which the fill's new version then covers.
      if (!sinks_.empty()) {
        if (ev.fault.silent != 0) {
          fill_ones_profile(before, ones_before_.data());
        } else {
          std::memcpy(ones_before_.data(), profile_of(li), profile_words_);
        }
      }
      ev.evicted_dirty = true;
      ev.evicted_dirty_words = cfg_.sector_writeback
                                   ? dirty_words_[li]
                                   : full_dirty_mask(line_bytes_);
      if (cfg_.write_policy == WritePolicy::kWriteBack) {
        next_write_line(cfg_.addr_of(tags_[li], set), stored);
        ++stats_.writebacks;
      }
    }
    ev.evicted_valid = true;
    ev.evicted_tag = tags_[li];
    ++stats_.evictions;
  }

  // Fill.
  next_read_line(cfg_.line_addr(addr), stored);
  valid_mask_[set] |= u64{1} << victim;
  tags_[li] = tag;
  set_dirty(set, victim, false);
  dirty_words_[li] = 0;

  bool filled_dirty = false;
  if (is_write) {
    if (!full_line_data.empty()) {
      std::memcpy(stored.data(), full_line_data.data(), line_bytes_);
    } else {
      store_word(stored, offset, size, value);
    }
    if (cfg_.write_policy == WritePolicy::kWriteBack) {
      set_dirty(set, victim, true);
      filled_dirty = true;
      dirty_words_[li] = full_line_data.empty()
                             ? (1ULL << (offset / 8))
                             : full_dirty_mask(line_bytes_);
    } else if (!full_line_data.empty()) {
      next_write_line(cfg_.line_addr(addr), stored);
    } else {
      next_write_word(addr, value, size);
    }
    ++stats_.write_misses;
    ev.kind = AccessKind::kWriteMissFill;
  } else {
    ++stats_.read_misses;
    ev.kind = AccessKind::kReadMissFill;
  }
  if (fault_hook_ != nullptr) {
    fault_hook_->on_fill(set, victim, stored);
  }
  ++stats_.fills;
  repl_on_fill(set, victim);
  mru_way_[set] = victim;
  bump_version(li);

  ev.way = victim;
  ev.line_before = before;
  ev.line_after = stored;
  ev.line_version = versions_[li];
  // Tag write on fill: tag field + valid + dirty state bits.
  ev.tag_bits_written = tag_state_bits_;
  ev.tag_ones_written =
      static_cast<usize>(std::popcount(tag)) + 1 + (filled_dirty ? 1 : 0);
  ev.idle_slots = idle_slots_for(/*miss=*/true);
  emit(ev, /*line_changed=*/true);
  return victim;
}

u32 Cache::choose_victim(u32 set) {
  // Lowest zero bit of the valid mask = first invalid way, if any.
  const u32 first_invalid =
      static_cast<u32>(std::countr_one(valid_mask_[set]));
  if (first_invalid < ways_) return first_invalid;
  return repl_victim(set);
}

// cnt-hot
u32 Cache::probe_tags(u32 set, u64 tag, AccessEvent& ev) const {
  const u64* tags = tags_.data() + static_cast<usize>(set) * ways_;
  const u64 vmask = valid_mask_[set];
  const u64 dmask = dirty_mask_[set];
  const auto way_tag_ones = [&](u32 w) {
    return static_cast<usize>(std::popcount(tags[w])) + ((vmask >> w) & 1u) +
           ((dmask >> w) & 1u);
  };

  if (cfg_.way_prediction) {
    // Probe the MRU way's tag first; only a first-probe miss reads the
    // remaining ways' tags.
    const u32 predicted = mru_way_[set];
    if (((vmask >> predicted) & 1u) && tags[predicted] == tag) {
      ev.tag_bits_read = tag_state_bits_;
      ev.tag_ones_read = way_tag_ones(predicted);
      return predicted;
    }
  }

  // Valid tags within a set are unique, so accumulating the ones count and
  // matching in the same sweep finds the same way lookup() would.
  u32 hit = static_cast<u32>(ways_);
  usize ones = 0;
  for (u32 w = 0; w < ways_; ++w) {
    ones += way_tag_ones(w);
    if (((vmask >> w) & 1u) && tags[w] == tag) hit = w;
  }
  ev.tag_bits_read = tag_state_bits_ * ways_;
  ev.tag_ones_read = ones;
  return hit;
}

// cnt-hot
void Cache::emit(AccessEvent& ev, bool line_changed) {
  if (sinks_.empty()) return;
  // A changed line is recounted here, after every mutation of the access
  // (stores, fault-hook corruption of the stored line), so the profile
  // describes exactly the span the sinks see. An unchanged line still
  // has the profile of its version.
  if (ev.line_after.empty()) {
    ev.ones_after = {};
    ev.ones_after_total = 0;
  } else {
    const usize li = line_index(ev.set, ev.way);
    u8* profile = profile_of(li);
    if (line_changed) {
      profile_totals_[li] =
          static_cast<u32>(fill_ones_profile(ev.line_after, profile));
    }
    ev.ones_after = {profile, profile_words_};
    ev.ones_after_total = profile_totals_[li];
  }
  ev.ones_before = ev.evicted_dirty ? std::span<const u8>(ones_before_)
                                    : std::span<const u8>{};
  for (auto* s : sinks_) s->on_access(ev);
}

u32 Cache::idle_slots_for(bool miss) {
  if (miss) return cfg_.idle.idle_per_miss;
  if (cfg_.idle.hit_idle_period == 0) return 0;
  // Counted up-and-reset rather than with a modulo: the period is a
  // runtime config value, so `%` would be a hardware divide on every hit.
  // Yields a slot on exactly the same hits (every period-th one).
  if (++hit_counter_ != cfg_.idle.hit_idle_period) return 0;
  hit_counter_ = 0;
  return 1u;
}

u64 Cache::peek_word(u64 addr, u8 size) const {
  const u32 set = static_cast<u32>((addr >> offset_bits_) & set_mask_);
  const u32 way = lookup(set, addr >> (offset_bits_ + set_bits_));
  if (way >= ways_) return 0;
  return load_word(line_data(set, way), cfg_.offset_of(addr), size);
}

void Cache::flush() {
  for (u32 s = 0; s < cfg_.sets(); ++s) {
    for (u32 w = 0; w < ways_; ++w) {
      if (is_valid(s, w) && is_dirty(s, w)) {
        next_.write_line(cfg_.addr_of(tags_[line_index(s, w)], s),
                         line_data(s, w));
        set_dirty(s, w, false);
        dirty_words_[line_index(s, w)] = 0;
      }
    }
  }
}

Cache::LineView Cache::line_view(u32 set, u32 way) const {
  return LineView{is_valid(set, way), is_dirty(set, way),
                  tags_[line_index(set, way)], line_data(set, way)};
}

std::optional<u32> Cache::find_way(u64 addr) const {
  const u32 set = static_cast<u32>((addr >> offset_bits_) & set_mask_);
  const u32 way = lookup(set, addr >> (offset_bits_ + set_bits_));
  if (way >= ways_) return std::nullopt;
  return way;
}

}  // namespace cnt
