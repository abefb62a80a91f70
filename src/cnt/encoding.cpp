#include "cnt/encoding.hpp"

#include <string>

#include "common/error.hpp"

namespace cnt {

// The hot kernels (encode/re-encode, stored_partition_ones, stored_ones,
// stored_ones_range) are defined inline in encoding.hpp; this file keeps
// construction-time validation and the allocating conveniences.

PartitionScheme::PartitionScheme(usize line_bytes, usize partitions)
    : line_bytes_(line_bytes), k_(partitions) {
  // K direction bits in a u64 mask, each over a whole-byte partition.
  if (k_ == 0 || k_ > 64 || line_bytes_ % k_ != 0) {
    throw ValueError(Errc::kRange,
                     "key 'cnt.partitions' has out-of-range value '" +
                         std::to_string(k_) + "' for a " +
                         std::to_string(line_bytes_) + " B line")
        .hint("use a K in [1, 64] that divides the line's byte count");
  }
  part_bits_ = line_bytes_ * 8 / k_;
}

std::vector<u8> encode_line(const PartitionScheme& ps,
                            std::span<const u8> logical, u64 directions) {
  std::vector<u8> out(ps.line_bytes());
  encode_line(ps, logical, directions, out);
  return out;
}

std::vector<usize> partition_ones(const PartitionScheme& ps,
                                  std::span<const u8> data) {
  std::vector<usize> ones(ps.partitions());
  for (usize p = 0; p < ps.partitions(); ++p) {
    ones[p] = detail::partition_raw_ones(ps, data.data(), p);
  }
  return ones;
}

}  // namespace cnt
