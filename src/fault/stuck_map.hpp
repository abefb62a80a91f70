// Deterministic placement of permanent stuck-at cells across one array.
//
// The map is a sorted list of (bit index, stuck value) pairs sampled once
// at campaign construction: the realized count is round(total_bits *
// density / 2^20) and the positions are drawn without replacement from a
// seeded Rng, so the same (seed, geometry, density) always yields the
// same defect pattern -- fault sweeps are replayable and resumable like
// every other experiment in the repo. Per-line queries start from a
// bucket index over the sorted list (about one cell per bucket), so a
// query costs O(1) plus its hits instead of a binary search per array
// read.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace cnt {

class StuckMap {
 public:
  StuckMap() = default;
  /// Sample round(total_bits * per_mbit / 2^20) distinct stuck cells;
  /// each sticks at '1' with probability `at1_fraction`.
  StuckMap(u64 seed, u64 total_bits, double per_mbit, double at1_fraction);

  [[nodiscard]] usize size() const noexcept { return cells_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cells_.empty(); }

  /// Visit every stuck cell with bit index in [base, base + count):
  /// fn(offset_within_range, stuck_value).
  template <typename Fn>
  void for_range(u64 base, u64 count, Fn&& fn) const {
    // First cell at or after `base`: the bucket's first cell, then a short
    // linear step over the few cells of the bucket that precede `base`.
    const u64 bucket = base >> shift_;
    usize i = bucket < bucket_first_.size() ? bucket_first_[bucket]
                                            : cells_.size();
    while (i < cells_.size() && cells_[i].bit < base) ++i;
    for (; i < cells_.size() && cells_[i].bit < base + count; ++i) {
      fn(static_cast<usize>(cells_[i].bit - base), cells_[i].value);
    }
  }

  /// Number of stuck cells in [base, base + count).
  [[nodiscard]] usize count_in(u64 base, u64 count) const noexcept;

 private:
  struct Cell {
    u64 bit;
    bool value;
  };
  std::vector<Cell> cells_;  // sorted by bit index
  // bucket_first_[b] = index of the first cell with bit >= (b << shift_).
  std::vector<usize> bucket_first_;
  u32 shift_ = 0;
};

}  // namespace cnt
