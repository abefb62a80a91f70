// Bit-level utilities for cache-line data.
//
// CNT-Cache's energy model is bit-pattern dependent (reading/writing '0'
// and '1' cost differently in a CNFET SRAM cell), so the simulator needs
// fast popcounts, range inversion, and bit-density statistics over byte
// buffers representing cache lines.
//
// The popcount/invert/hamming kernels are defined inline here: they sit on
// the per-access hot path (tens of calls per simulated access once every
// energy policy has charged its pattern-dependent costs), where an
// out-of-line call per 8-byte word costs more than the popcount itself.
// All kernels work word-at-a-time over unaligned 64-bit loads.
#pragma once

#include <bit>
#include <cassert>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace cnt {

namespace detail {

/// Unaligned little-endian 64-bit load (compiles to a single mov).
[[nodiscard]] inline u64 load_u64(const u8* p) noexcept {
  u64 w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Mask with bits [lo, hi) set within a byte, 0 <= lo <= hi <= 8.
[[nodiscard]] constexpr u8 byte_mask(usize lo, usize hi) noexcept {
  const u32 width = static_cast<u32>(hi - lo);
  const u32 base = width >= 8 ? 0xFFu : ((1u << width) - 1u);
  return static_cast<u8>((base << lo) & 0xFFu);
}

}  // namespace detail

/// Number of '1' bits in a byte buffer.
[[nodiscard]] inline usize popcount(std::span<const u8> bytes) noexcept {
  usize total = 0;
  usize i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    total += static_cast<usize>(std::popcount(detail::load_u64(bytes.data() + i)));
  }
  for (; i < bytes.size(); ++i) {
    total += static_cast<usize>(std::popcount(static_cast<u32>(bytes[i])));
  }
  return total;
}

/// Number of '1' bits in the bit-range [bit_begin, bit_end) of `bytes`.
/// Bits are numbered LSB-first within each byte, bytes in buffer order.
/// Precondition: bit_end <= bytes.size() * 8 and bit_begin <= bit_end.
[[nodiscard]] inline usize popcount_range(std::span<const u8> bytes,
                                          usize bit_begin,
                                          usize bit_end) noexcept {
  assert(bit_begin <= bit_end);
  assert(bit_end <= bytes.size() * 8);
  if (bit_begin == bit_end) return 0;

  // Byte-aligned ranges (dirty-word and partition boundaries -- the hot
  // callers) reduce to whole-byte popcounts with no edge masking.
  if (((bit_begin | bit_end) & 7) == 0) {
    return popcount(bytes.subspan(bit_begin / 8, (bit_end - bit_begin) / 8));
  }

  const usize first_byte = bit_begin / 8;
  const usize last_byte = (bit_end - 1) / 8;

  if (first_byte == last_byte) {
    const u8 mask = detail::byte_mask(bit_begin % 8, (bit_end - 1) % 8 + 1);
    return static_cast<usize>(
        std::popcount(static_cast<u32>(bytes[first_byte] & mask)));
  }

  usize total = static_cast<usize>(std::popcount(static_cast<u32>(
      bytes[first_byte] & detail::byte_mask(bit_begin % 8, 8))));
  if (last_byte > first_byte + 1) {
    total += popcount(bytes.subspan(first_byte + 1, last_byte - first_byte - 1));
  }
  total += static_cast<usize>(std::popcount(static_cast<u32>(
      bytes[last_byte] & detail::byte_mask(0, (bit_end - 1) % 8 + 1))));
  return total;
}

/// Ones profile of a line: out[w] = number of '1' bits in the w-th 8-byte
/// word of `bytes`. Returns the sum over all words (the line's popcount).
/// Precondition: bytes.size() % 8 == 0 and `out` holds bytes.size() / 8
/// entries.
// cnt-hot
inline usize fill_ones_profile(std::span<const u8> bytes, u8* out) noexcept {
  assert(bytes.size() % 8 == 0);
  usize total = 0;
  for (usize w = 0; w < bytes.size() / 8; ++w) {
    const int ones = std::popcount(detail::load_u64(bytes.data() + w * 8));
    out[w] = static_cast<u8>(ones);
    total += static_cast<usize>(ones);
  }
  return total;
}

/// Number of '1' bits in the bit-range [bit_begin, bit_end) of `bytes`,
/// given its ones profile (see fill_ones_profile). Ranges whose ends are
/// both 64-bit aligned sum the profile; any other range, or an empty
/// profile, falls back to popcount_range over the bytes. Same result
/// either way.
// cnt-hot
[[nodiscard]] inline usize profile_ones_range(std::span<const u8> bytes,
                                              std::span<const u8> profile,
                                              usize bit_begin,
                                              usize bit_end) noexcept {
  if (profile.empty() || ((bit_begin | bit_end) & 63) != 0) {
    return popcount_range(bytes, bit_begin, bit_end);
  }
  assert(bit_end / 64 <= profile.size());
  usize total = 0;
  for (usize w = bit_begin / 64; w < bit_end / 64; ++w) total += profile[w];
  return total;
}

/// Invert every bit of `bytes` in place.
inline void invert(std::span<u8> bytes) noexcept {
  usize i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const u64 w = ~detail::load_u64(bytes.data() + i);
    std::memcpy(bytes.data() + i, &w, 8);
  }
  for (; i < bytes.size(); ++i) {
    // cnt-lint: narrow-ok (~ promotes to int; the low byte is the result)
    bytes[i] = static_cast<u8>(~bytes[i]);
  }
}

/// Invert the bit-range [bit_begin, bit_end) of `bytes` in place.
/// Same bit-numbering and preconditions as popcount_range().
inline void invert_range(std::span<u8> bytes, usize bit_begin,
                         usize bit_end) noexcept {
  assert(bit_begin <= bit_end);
  assert(bit_end <= bytes.size() * 8);
  if (bit_begin == bit_end) return;

  if (((bit_begin | bit_end) & 7) == 0) {
    invert(bytes.subspan(bit_begin / 8, (bit_end - bit_begin) / 8));
    return;
  }

  const usize first_byte = bit_begin / 8;
  const usize last_byte = (bit_end - 1) / 8;

  if (first_byte == last_byte) {
    bytes[first_byte] ^= detail::byte_mask(bit_begin % 8, (bit_end - 1) % 8 + 1);
    return;
  }

  bytes[first_byte] ^= detail::byte_mask(bit_begin % 8, 8);
  if (last_byte > first_byte + 1) {
    invert(bytes.subspan(first_byte + 1, last_byte - first_byte - 1));
  }
  bytes[last_byte] ^= detail::byte_mask(0, (bit_end - 1) % 8 + 1);
}

/// Returns a copy of `bytes` with every bit inverted.
[[nodiscard]] std::vector<u8> inverted(std::span<const u8> bytes);

/// Number of bit positions where `a` and `b` differ (Hamming distance).
/// Precondition: a.size() == b.size().
[[nodiscard]] inline usize hamming_distance(std::span<const u8> a,
                                            std::span<const u8> b) noexcept {
  usize total = 0;
  usize i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    total += static_cast<usize>(std::popcount(
        detail::load_u64(a.data() + i) ^ detail::load_u64(b.data() + i)));
  }
  for (; i < a.size(); ++i) {
    total += static_cast<usize>(std::popcount(static_cast<u32>(a[i] ^ b[i])));
  }
  return total;
}

/// Fraction of '1' bits in the buffer, in [0, 1]. Empty buffers yield 0.
[[nodiscard]] double bit1_density(std::span<const u8> bytes) noexcept;

/// Extract bit `index` (LSB-first within bytes) from the buffer.
[[nodiscard]] inline bool get_bit(std::span<const u8> bytes,
                                  usize index) noexcept {
  assert(index < bytes.size() * 8);
  return (bytes[index / 8] >> (index % 8)) & 1u;
}

/// Set bit `index` (LSB-first within bytes) in the buffer.
inline void set_bit(std::span<u8> bytes, usize index, bool value) noexcept {
  assert(index < bytes.size() * 8);
  const u8 mask = static_cast<u8>(1u << (index % 8));
  if (value) {
    bytes[index / 8] |= mask;
  } else {
    bytes[index / 8] &= static_cast<u8>(~mask);
  }
}

/// True iff `v` is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(u64 v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// log2 of a power of two. Precondition: is_pow2(v).
[[nodiscard]] constexpr u32 log2_exact(u64 v) noexcept {
  return static_cast<u32>(std::countr_zero(v));
}

/// Smallest number of bits needed to represent values in [0, n].
/// ceil_log2(0) == 0, ceil_log2(1) == 1 bit counter? -- by convention this
/// returns the width of a counter able to hold the value n itself:
/// ceil_log2(15) == 4, ceil_log2(16) == 5.
[[nodiscard]] constexpr u32 bits_to_hold(u64 n) noexcept {
  u32 w = 0;
  while (n != 0) {
    ++w;
    n >>= 1;
  }
  return w == 0 ? 1 : w;
}

}  // namespace cnt
