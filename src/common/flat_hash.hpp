// Open-addressing hash map for the simulator hot path.
//
// The replay loop performs one page-mask probe per access for the
// unique-line count (TraceStatsAccumulator) and one granule-index probe
// per fill/writeback (MainMemory). std::unordered_map puts a
// heap-allocated node and a pointer chase on each of those probes; at
// millions of accesses per second they dominate the profile
// (docs/performance.md). This container keeps keys in one contiguous
// power-of-two array with linear probing, so a probe is a multiply-shift
// hash plus a handful of adjacent loads.
//
// Scope is deliberately narrow: u64 keys, insert/find only (no erase),
// values stored in a parallel array. Determinism: results depend only on
// the key sequence -- no pointers, no randomized seeds -- and nothing
// here is ever iterated, so container order can never leak into output
// (lint rule R5 by construction).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace cnt {

namespace detail {

/// splitmix64 finalizer: full-avalanche mixing so clustered keys (page
/// numbers, granule numbers) spread across the table.
[[nodiscard]] constexpr u64 hash_mix_u64(u64 x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Insert-only map from u64 keys to trivially-copyable values, laid out as
/// a flat key array plus a parallel value array.
template <typename V>
class U64Map {
 public:
  U64Map() : keys_(kInitialCapacity, kEmpty), values_(kInitialCapacity) {}

  /// Value slot for `key`, inserting `fallback` when absent.
  V& find_or_insert(u64 key, const V& fallback) {
    if (key == kEmpty) {
      if (!has_empty_key_) {
        has_empty_key_ = true;
        empty_value_ = fallback;
      }
      return empty_value_;
    }
    if ((size_ + 1) * 8 >= keys_.size() * 7) rehash(keys_.size() * 2);
    const usize i = probe(keys_, key);
    if (keys_[i] != key) {
      keys_[i] = key;
      values_[i] = fallback;
      ++size_;
    }
    return values_[i];
  }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] const V* find(u64 key) const noexcept {
    if (key == kEmpty) return has_empty_key_ ? &empty_value_ : nullptr;
    const usize i = probe(keys_, key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }
  [[nodiscard]] V* find(u64 key) noexcept {
    return const_cast<V*>(static_cast<const U64Map*>(this)->find(key));
  }

  /// Size the table so `n` more keys insert without a rehash.
  void reserve(usize n) {
    usize cap = keys_.size();
    while ((size_ + n) * 8 >= cap * 7) cap *= 2;
    if (cap != keys_.size()) rehash(cap);
  }

  /// Pull the home slot of `key` toward the CPU caches. No probe: a hit
  /// usually sits in the home slot, and a miss costs nothing here.
  void prefetch(u64 key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const usize i =
        static_cast<usize>(detail::hash_mix_u64(key)) & (keys_.size() - 1);
    __builtin_prefetch(&keys_[i], 0, 1);
    __builtin_prefetch(&values_[i], 0, 1);
#else
    (void)key;
#endif
  }

  [[nodiscard]] usize size() const noexcept {
    return size_ + (has_empty_key_ ? 1 : 0);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  static constexpr u64 kEmpty = ~u64{0};
  static constexpr usize kInitialCapacity = 64;  // power of two

  [[nodiscard]] static usize probe(const std::vector<u64>& keys,
                                   u64 key) noexcept {
    const usize mask = keys.size() - 1;
    usize i = static_cast<usize>(detail::hash_mix_u64(key)) & mask;
    while (keys[i] != kEmpty && keys[i] != key) i = (i + 1) & mask;
    return i;
  }

  void rehash(usize capacity) {
    std::vector<u64> keys(capacity, kEmpty);
    std::vector<V> values(capacity);
    for (usize i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == kEmpty) continue;
      const usize j = probe(keys, keys_[i]);
      keys[j] = keys_[i];
      values[j] = values_[i];
    }
    keys_.swap(keys);
    values_.swap(values);
  }

  std::vector<u64> keys_;
  std::vector<V> values_;
  usize size_ = 0;
  bool has_empty_key_ = false;
  V empty_value_{};
};

}  // namespace cnt
