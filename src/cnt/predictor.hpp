// Encoding-direction predictor (paper Algorithm 1).
//
// Per-line history: an access counter A_num and a write counter Wr_num,
// stored in the widened cache line ("H" of the H&D field). Every W-th
// access to a line closes a window: step 1 classifies the line read- vs
// write-intensive from Wr_num; step 2 popcounts the *stored* data per
// partition and consults the precomputed threshold table (Eq. 6) to decide
// whether each partition's direction bit should flip. Counters then reset.
//
// The predictor is deliberately a pure decision engine: it mutates only the
// LineState history/direction fields handed to it and never touches the
// cache or the energy ledger (the policy adapter owns those).
#pragma once

#include <span>

#include "cnt/encoding.hpp"
#include "cnt/threshold.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace cnt {

/// The H (history) field: the window's access counters. Stored per line
/// in the paper's design; the per-set sharing extension keeps one copy per
/// set instead (see CntConfig::history_scope).
struct HistoryCounters {
  u16 a_num = 0;   ///< accesses in the current window
  u16 wr_num = 0;  ///< writes in the current window
};

/// Per-line CNT-Cache state: the H&D field plus simulation bookkeeping.
struct LineState {
  HistoryCounters hist;
  u64 directions = 0;   ///< partition direction bits (D field)
  u32 generation = 0;   ///< bumped on fill; guards stale FIFO entries
  bool pending = false; ///< a re-encode request is queued for this line
  bool zero_flag = false;  ///< zero-line elision flag (extension; see
                           ///< CntConfig::zero_line_opt)
  bool write_filled = false;  ///< the line was brought in by a write miss
                              ///< (drives re-materialization encoding)
  /// Read-cost memo (CntPolicy): the data-read energy last priced for the
  /// line's bytes at AccessEvent::line_version `read_version`, decoded
  /// under `directions`. It is valid while the cache reports that version
  /// and the decoder sees `directions`; every change of `directions`
  /// clears it. 0 = none.
  u64 read_version = 0;
  Energy read_cost{};
};

struct PredictorDecision {
  bool window_completed = false;
  bool write_intensive = false;
  bool switch_requested = false;  ///< at least one partition should flip
  u64 new_directions = 0;         ///< valid when window_completed
  u32 partitions_flipped = 0;
};

class Predictor {
 public:
  Predictor(const BitEnergies& cell, PartitionScheme scheme, usize window,
            double delta_t = 0.0, double write_weight = 1.0);

  /// Record one access to a line stored under `directions`, whose
  /// post-access contents have the raw (unencoded) per-partition '1'
  /// counts `raw_ones` (one entry per partition). On a window boundary,
  /// evaluates every partition's stored image and returns the decision;
  /// the caller applies direction changes via its deferred-update queue.
  /// Counters are reset at the boundary per Algorithm 1. `raw_ones` is
  /// read only at a boundary (see window_closes), so callers may pass an
  /// empty span on any other access.
  [[nodiscard]] PredictorDecision on_access(
      HistoryCounters& hist, u64 directions, bool is_write,
      std::span<const usize> raw_ones) const {
    ++hist.a_num;
    if (is_write) ++hist.wr_num;
    if (hist.a_num < window_) return {};
    return close_window(hist, directions, raw_ones);
  }

  /// True when the next on_access() on `hist` closes a window, i.e. when
  /// it will read the partition counts.
  [[nodiscard]] bool window_closes(const HistoryCounters& hist) const noexcept {
    return hist.a_num + 1u >= window_;
  }

  [[nodiscard]] const ThresholdTable& table() const noexcept { return table_; }
  [[nodiscard]] const PartitionScheme& scheme() const noexcept {
    return scheme_;
  }
  [[nodiscard]] usize window() const noexcept { return window_; }

  /// Width of the H (history) field in bits: two counters of
  /// ceil(log2(W)) bits each, as the paper specifies.
  [[nodiscard]] usize history_bits() const noexcept { return history_bits_; }

 private:
  /// The window boundary of on_access: evaluate every partition, then
  /// reset the counters.
  [[nodiscard]] PredictorDecision close_window(
      HistoryCounters& hist, u64 directions,
      std::span<const usize> raw_ones) const;

  PartitionScheme scheme_;
  ThresholdTable table_;
  usize window_;
  usize history_bits_;
};

}  // namespace cnt
