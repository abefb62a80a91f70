// FaultCampaign: one seeded, deterministic fault-injection run.
//
// The campaign owns the physical-divergence state of a single cache
// array: a StuckMap per fault domain (data cells, direction-bit cells),
// independent RNG streams for transient upsets in each domain, and the
// per-line record of what direction mask was *written* vs. what the
// cells actually *hold*. It plugs into the functional cache as a
// LineFaultHook (data side) and is queried by CntPolicy for the
// direction-bit side, so a corrupted direction bit really is decoded
// with the flipped mask: the whole partition reads back inverted unless
// the protection scheme catches it.
//
// Protection semantics (see src/fault/protection.hpp for the codes):
//   * corrected -- the code repaired the read-out value; for stuck cells
//     the repair is paid again on every read (the cell stays stuck).
//   * detected -- the code flagged an uncorrectable pattern; the model
//     assumes refetch recovery, so the stored content is restored and
//     only the detection is counted.
//   * silent   -- the pattern escaped the code: the corruption stays in
//     the array, is served to the CPU, and propagates down on writeback.
// Flips co-occurring in the data and direction portions of one codeword
// read are classified independently (the joint event is quadratically
// rare at realistic rates); the codeword *geometry* still covers both,
// which is what the energy accounting prices.
#pragma once

#include <span>
#include <vector>

#include "cache/fault_hook.hpp"
#include "cnt/direction_hook.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_config.hpp"
#include "fault/protection.hpp"
#include "fault/stuck_map.hpp"

namespace cnt {

/// Campaign-wide fault tallies, reported through SimResult.
struct FaultStats {
  u64 stuck_data_cells = 0;   ///< placed in the data array
  u64 stuck_dir_cells = 0;    ///< placed in the direction-bit array
  u64 transient_data_flips = 0;
  u64 transient_dir_flips = 0;
  u64 faulty_reads = 0;       ///< array reads that saw >= 1 raw flip
  u64 corrected_bits = 0;     ///< data bits repaired by SECDED
  u64 detected_events = 0;    ///< data-side detections (refetch recovery)
  u64 silent_bits = 0;        ///< data bits of silent corruption (SDC)
  u64 dir_flips = 0;          ///< direction-bit upsets observed at read
  u64 dir_corrected_bits = 0;
  u64 dir_detected_events = 0;
  u64 dir_silent_bits = 0;    ///< partitions decoded with the wrong mask

  [[nodiscard]] bool any_faults() const noexcept {
    return stuck_data_cells + stuck_dir_cells + transient_data_flips +
               transient_dir_flips !=
           0;
  }
};

/// Exact geometric-skip sampler for the transient upsets of one fault
/// domain (a line's data bits, or its K direction bits).
///
/// The gap to the next flip of a Bernoulli(p) process is
/// floor(log1p(-u) / log1p(-p)) for one uniform u in [0, 1), and a read
/// only cares whether that gap falls inside its `limit` bits. Almost every
/// draw lands past the limit at realistic rates, so the sampler precomputes
/// log1p(-p) and the smallest u whose gap provably reaches the limit
/// (u_clear, with a safety margin) and rejects those draws with one
/// compare, without any log. Every other draw runs the exact formula, so
/// the RNG stream and every outcome match the formula-only sampler
/// (docs/fault_model.md explains why the shortcut is exact).
class TransientSampler {
 public:
  /// `p` is the per-bit flip probability (0 < p <= 1 in practice) and
  /// `limit` the number of bits one read scans.
  TransientSampler(double p, u64 limit) noexcept;

  /// Gap for the uniform draw `u`: the exact formula's value when it is
  /// below limit(), else limit() itself ("no flip within the range").
  [[nodiscard]] u64 skip_for(double u) const noexcept;
  /// Draw one uniform from `rng` (none when p >= 1, where every bit
  /// flips) and return skip_for() of it.
  [[nodiscard]] u64 next(Rng& rng) const noexcept {
    return always_ ? 0 : skip_for(rng.uniform01());
  }

  [[nodiscard]] double u_clear() const noexcept { return u_clear_; }

 private:
  double log1m_p_ = 0.0;  ///< log1p(-p)
  double u_clear_ = 0.0;  ///< u >= u_clear: the gap is >= limit
  u64 limit_ = 0;
  bool always_ = false;   ///< p >= 1
};

class FaultCampaign final : public LineFaultHook, public DirectionFaultHook {
 public:
  FaultCampaign(const FaultConfig& cfg, usize sets, usize ways,
                usize line_bytes, usize partitions);

  // LineFaultHook (data-array domain; installed via Cache::set_fault_hook).
  void on_fill(u32 set, u32 way, std::span<u8> stored) override;
  LineFaultReport on_read(u32 set, u32 way, std::span<u8> stored) override;

  // DirectionFaultHook (direction-bit domain; attached to CntPolicy).
  void write_directions(u32 set, u32 way, u64 dirs) override;
  [[nodiscard]] DirRead read_directions(u32 set, u32 way) override;

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const StuckMap& data_stuck() const noexcept {
    return data_stuck_;
  }
  [[nodiscard]] const StuckMap& dir_stuck() const noexcept {
    return dir_stuck_;
  }
  [[nodiscard]] usize line_bits() const noexcept { return line_bits_; }
  /// Stuck data cells overlapping line (set, way).
  [[nodiscard]] usize stuck_in_line(u32 set, u32 way) const noexcept;
  /// Stuck direction-bit cells of line (set, way), as a (mask, value-mask)
  /// pair: bit p of `first` set means direction bit p is stuck, and bit p
  /// of `second` gives the value it is stuck at.
  [[nodiscard]] std::pair<u64, u64> stuck_directions(u32 set,
                                                     u32 way) const noexcept;

 private:
  [[nodiscard]] u64 line_index(u32 set, u32 way) const noexcept {
    return static_cast<u64>(set) * ways_ + way;
  }
  [[nodiscard]] u64 data_base(u32 set, u32 way) const noexcept {
    return line_index(set, way) * line_bits_;
  }
  [[nodiscard]] u64 dir_base(u32 set, u32 way) const noexcept {
    return line_index(set, way) * partitions_;
  }
  [[nodiscard]] u64 apply_dir_stuck(u64 base, u64 dirs) const noexcept;
  void classify_data_read(std::span<u8> stored, LineFaultReport& rep);

  FaultConfig cfg_;
  usize ways_;
  usize line_bits_;
  usize partitions_;
  usize part_bits_;
  StuckMap data_stuck_;
  StuckMap dir_stuck_;
  Rng data_rng_;
  Rng dir_rng_;
  TransientSampler data_skip_;  ///< transient gaps over a line's data bits
  TransientSampler dir_skip_;   ///< transient gaps over its direction bits
  std::vector<u64> written_dirs_;  ///< per line: mask the encoder intended
  std::vector<u64> stored_dirs_;   ///< per line: mask the cells hold
  std::vector<u32> flip_scratch_;  ///< bit offsets flipped by this read
  FaultStats stats_;
};

}  // namespace cnt
