#include "fault/stuck_map.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

#include "common/rng.hpp"

namespace cnt {

StuckMap::StuckMap(u64 seed, u64 total_bits, double per_mbit,
                   double at1_fraction) {
  if (total_bits == 0 || per_mbit <= 0.0) return;
  const double expected =
      static_cast<double>(total_bits) * per_mbit / (1024.0 * 1024.0);
  u64 count = static_cast<u64>(std::llround(expected));
  if (count > total_bits) count = total_bits;
  if (count == 0) return;

  Rng rng(seed);
  std::unordered_set<u64> taken;
  taken.reserve(static_cast<usize>(count) * 2);
  cells_.reserve(static_cast<usize>(count));
  while (taken.size() < count) {
    const u64 bit = rng.uniform(total_bits);
    if (!taken.insert(bit).second) continue;
    cells_.push_back(Cell{bit, rng.chance(at1_fraction)});
  }
  std::sort(cells_.begin(), cells_.end(),
            [](const Cell& a, const Cell& b) { return a.bit < b.bit; });

  // Size the buckets so that there are about as many buckets as cells.
  const u32 index_bits = static_cast<u32>(std::bit_width(total_bits - 1));
  const u32 cell_bits = static_cast<u32>(std::bit_width(cells_.size()));
  shift_ = index_bits > cell_bits ? index_bits - cell_bits : 0;
  const u64 buckets = ((total_bits - 1) >> shift_) + 1;
  bucket_first_.resize(static_cast<usize>(buckets));
  usize i = 0;
  for (u64 b = 0; b < buckets; ++b) {
    while (i < cells_.size() && (cells_[i].bit >> shift_) < b) ++i;
    bucket_first_[static_cast<usize>(b)] = i;
  }
}

usize StuckMap::count_in(u64 base, u64 count) const noexcept {
  usize n = 0;
  for_range(base, count, [&n](usize, bool) { ++n; });
  return n;
}

}  // namespace cnt
