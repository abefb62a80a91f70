// Partitioned cache-line encoding (paper Section III.B, Fig. 2).
//
// A line of L bits is split into K equal partitions; each partition p has a
// direction bit D[p]. When D[p] = 1 the partition is stored bitwise
// inverted. The hardware encoder is "a series of inverters with 2-to-1
// multiplexers" selected by the direction bits; here we provide the
// bit-exact functional equivalent plus the popcount helpers the predictor
// and the energy model need.
//
// Direction bits are packed LSB-first into a u64 mask (K <= 64).
//
// The per-partition popcount and the encode/re-encode kernels are defined
// inline: every simulated access popcounts several partitions (stored read
// and write costs, fill-direction choice, window evaluations), and the
// partition constraint (K divides the line into byte-aligned partitions)
// makes whole partitions coverable by unaligned 64-bit loads whenever the
// partition width is a multiple of 64 bits -- the common geometries (64 B
// line, K <= 8) take that word-packed path.
#pragma once

#include <cassert>
#include <cstring>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace cnt {

/// Static description of a line's partitioning.
class PartitionScheme {
 public:
  /// K must be in [1, 64] and divide line_bytes, so the partitions are
  /// byte-aligned and the hardware mux boundaries fall on byte lanes.
  /// Otherwise throws ValueError (Errc::kRange) naming cnt.partitions and
  /// the line size: the one place K is checked.
  PartitionScheme(usize line_bytes, usize partitions);

  [[nodiscard]] usize partitions() const noexcept { return k_; }
  [[nodiscard]] usize line_bytes() const noexcept { return line_bytes_; }
  [[nodiscard]] usize line_bits() const noexcept { return line_bytes_ * 8; }
  [[nodiscard]] usize partition_bits() const noexcept { return part_bits_; }
  [[nodiscard]] usize partition_bytes() const noexcept {
    return part_bits_ / 8;
  }

  /// Bit range [begin, end) of partition p.
  [[nodiscard]] usize bit_begin(usize p) const noexcept {
    return p * part_bits_;
  }
  [[nodiscard]] usize bit_end(usize p) const noexcept {
    return (p + 1) * part_bits_;
  }

 private:
  usize line_bytes_;
  usize k_;
  usize part_bits_;
};

namespace detail {

/// '1' count of partition p of `data` as stored raw (direction bit 0).
// cnt-hot
[[nodiscard]] inline usize partition_raw_ones(const PartitionScheme& ps,
                                              const u8* data,
                                              usize p) noexcept {
  const usize pb = ps.partition_bytes();
  const u8* q = data + p * pb;
  if (pb % 8 == 0) {
    usize total = 0;
    for (usize i = 0; i < pb; i += 8) {
      total += static_cast<usize>(std::popcount(load_u64(q + i)));
    }
    return total;
  }
  return cnt::popcount(std::span<const u8>(q, pb));
}

/// XOR-invert partition p of `line` in place.
// cnt-hot
inline void invert_partition(const PartitionScheme& ps, u8* line,
                             usize p) noexcept {
  const usize pb = ps.partition_bytes();
  u8* q = line + p * pb;
  if (pb % 8 == 0) {
    for (usize i = 0; i < pb; i += 8) {
      const u64 w = ~load_u64(q + i);
      std::memcpy(q + i, &w, 8);
    }
    return;
  }
  cnt::invert(std::span<u8>(q, pb));
}

}  // namespace detail

/// Raw '1' count of partition p of `line`, read from the line's ones
/// profile (AccessEvent::ones_after / ones_before; see fill_ones_profile)
/// when partitions are whole 64-bit profile words, and popcounted from
/// the bytes when they are narrower.
// cnt-hot
[[nodiscard]] inline usize profile_partition_ones(
    const PartitionScheme& ps, std::span<const u8> line,
    std::span<const u8> profile, usize p) noexcept {
  const usize pb = ps.partition_bits();
  if (pb % 64 != 0) return detail::partition_raw_ones(ps, line.data(), p);
  assert(profile.size() * 64 == ps.line_bits());
  const usize words = pb / 64;
  const u8* q = profile.data() + p * words;
  usize total = 0;
  for (usize w = 0; w < words; ++w) total += q[w];
  return total;
}

/// Apply the encoding: copy `logical` into `out`, inverting every partition
/// whose direction bit is set. Involutive: encode(encode(x, D), D) == x,
/// so the same function decodes.
// cnt-hot
inline void encode_line(const PartitionScheme& ps, std::span<const u8> logical,
                        u64 directions, std::span<u8> out) {
  assert(logical.size() == ps.line_bytes());
  assert(out.size() == ps.line_bytes());
  std::memcpy(out.data(), logical.data(), logical.size());
  for (u64 m = directions & (ps.partitions() >= 64
                                 ? ~u64{0}
                                 : (u64{1} << ps.partitions()) - 1);
       m != 0; m &= m - 1) {
    detail::invert_partition(ps, out.data(),
                             static_cast<usize>(std::countr_zero(m)));
  }
}

/// Convenience allocating form.
[[nodiscard]] std::vector<u8> encode_line(const PartitionScheme& ps,
                                          std::span<const u8> logical,
                                          u64 directions);

/// In-place re-encode from `old_dirs` to `new_dirs`: inverts exactly the
/// partitions whose direction changed (what the deferred-update write does).
// cnt-hot
inline void reencode_line(const PartitionScheme& ps, std::span<u8> stored,
                          u64 old_dirs, u64 new_dirs) {
  assert(stored.size() == ps.line_bytes());
  const u64 mask = ps.partitions() >= 64 ? ~u64{0}
                                         : (u64{1} << ps.partitions()) - 1;
  for (u64 m = (old_dirs ^ new_dirs) & mask; m != 0; m &= m - 1) {
    detail::invert_partition(ps, stored.data(),
                             static_cast<usize>(std::countr_zero(m)));
  }
}

/// Number of '1' bits partition p of `data` would have when stored with
/// direction bit `inverted`.
// cnt-hot
[[nodiscard]] inline usize stored_partition_ones(const PartitionScheme& ps,
                                                 std::span<const u8> data,
                                                 usize p,
                                                 bool inverted) noexcept {
  assert(p < ps.partitions());
  const usize raw = detail::partition_raw_ones(ps, data.data(), p);
  return inverted ? ps.partition_bits() - raw : raw;
}

/// Total '1' bits of the full stored image of `logical` under `directions`,
/// without materializing the encoded bytes.
// cnt-hot
[[nodiscard]] inline usize stored_ones(const PartitionScheme& ps,
                                       std::span<const u8> logical,
                                       u64 directions) noexcept {
  usize total = 0;
  for (usize p = 0; p < ps.partitions(); ++p) {
    total += stored_partition_ones(ps, logical, p, (directions >> p) & 1u);
  }
  return total;
}

/// '1' bits of the stored image restricted to the bit range
/// [bit_begin, bit_end) -- used for word-granular write accounting, where
/// only the accessed word's columns are driven. `profile` is the ones
/// profile of `logical` (AccessEvent::ones_after / ones_before): raw
/// counts of 64-bit aligned overlaps are summed from it, all others are
/// popcounted from the bytes (see profile_ones_range).
// cnt-hot
[[nodiscard]] inline usize stored_ones_range(const PartitionScheme& ps,
                                             std::span<const u8> logical,
                                             std::span<const u8> profile,
                                             u64 directions, usize bit_begin,
                                             usize bit_end) noexcept {
  assert(bit_begin <= bit_end);
  assert(bit_end <= ps.line_bits());
  usize total = 0;
  const usize first_p = bit_begin / ps.partition_bits();
  const usize last_p =
      bit_begin == bit_end ? first_p
                           : (bit_end - 1) / ps.partition_bits() + 1;
  for (usize p = first_p; p < last_p; ++p) {
    const usize lo = bit_begin > ps.bit_begin(p) ? bit_begin : ps.bit_begin(p);
    const usize hi = bit_end < ps.bit_end(p) ? bit_end : ps.bit_end(p);
    if (lo >= hi) continue;
    const usize raw = profile_ones_range(logical, profile, lo, hi);
    total += ((directions >> p) & 1u) ? (hi - lo) - raw : raw;
  }
  return total;
}

/// The same count with no profile: every overlap is popcounted from the
/// bytes.
[[nodiscard]] inline usize stored_ones_range(const PartitionScheme& ps,
                                             std::span<const u8> logical,
                                             u64 directions, usize bit_begin,
                                             usize bit_end) noexcept {
  return stored_ones_range(ps, logical, {}, directions, bit_begin, bit_end);
}

/// Per-partition '1' counts of the raw (unencoded) data.
[[nodiscard]] std::vector<usize> partition_ones(const PartitionScheme& ps,
                                                std::span<const u8> data);

}  // namespace cnt
