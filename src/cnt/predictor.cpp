#include "cnt/predictor.hpp"

#include <cassert>

#include "common/bits.hpp"

namespace cnt {

Predictor::Predictor(const BitEnergies& cell, PartitionScheme scheme,
                     usize window, double delta_t, double write_weight)
    : scheme_(scheme),
      table_(cell, window, scheme.partition_bits(), delta_t, write_weight),
      window_(window),
      history_bits_(2 * bits_to_hold(window - 1)) {
  assert(window >= 1);
}

PredictorDecision Predictor::close_window(
    HistoryCounters& hist, u64 directions,
    std::span<const usize> raw_ones) const {
  PredictorDecision d;
  assert(raw_ones.size() == scheme_.partitions());
  d.window_completed = true;
  const usize wr_num = hist.wr_num;
  d.write_intensive = table_.is_write_intensive(wr_num);
  d.new_directions = directions;

  const usize pb = scheme_.partition_bits();
  for (usize p = 0; p < scheme_.partitions(); ++p) {
    const bool dir = (directions >> p) & 1u;
    const usize ones = dir ? pb - raw_ones[p] : raw_ones[p];
    if (table_.should_switch(wr_num, ones)) {
      d.new_directions ^= (1ULL << p);
      ++d.partitions_flipped;
    }
  }
  d.switch_requested = d.partitions_flipped > 0;

  hist.a_num = 0;
  hist.wr_num = 0;
  return d;
}

}  // namespace cnt
