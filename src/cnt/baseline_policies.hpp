// Comparator policies: the baseline CNFET cache (no encoding), the CMOS
// cache (same class, CMOS parameters), a static always-invert encoder, and
// the unattainable per-access oracle.
#pragma once

#include <vector>

#include "cnt/encoding.hpp"
#include "cnt/policy_base.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

/// Conventional cache: data stored as-is. Instantiate with
/// TechParams::cnfet() for the paper's baseline CNFET cache, or
/// TechParams::cmos() for the CMOS reference.
class PlainPolicy final : public EnergyPolicyBase {
 public:
  PlainPolicy(std::string name, const TechParams& tech,
              const ArrayGeometry& geom,
              WriteGranularity wg = WriteGranularity::kWord)
      : EnergyPolicyBase(std::move(name), tech, geom, wg),
        line_energy_(tech.cell, geom.line_bytes * 8),
        word_energy_(tech.cell, 64) {}

  void on_access(const AccessEvent& ev) override;

 private:
  // Fixed-width energy lookup tables (see EnergyByOnes): the full line
  // (hits and fills) and one 64-bit dirty word (writeback pricing).
  EnergyByOnes line_energy_;
  EnergyByOnes word_energy_;
};

/// Static whole-line inversion: every line is stored complemented. Needs no
/// per-line metadata (the direction is global) but pays the encoder
/// data-path energy. Wins only when workload data is biased the right way
/// for the access mix -- the strawman that motivates *adaptive* encoding.
class StaticInvertPolicy final : public EnergyPolicyBase {
 public:
  StaticInvertPolicy(std::string name, const TechParams& tech,
                     const ArrayGeometry& geom,
                     WriteGranularity wg = WriteGranularity::kWord)
      : EnergyPolicyBase(std::move(name), tech, geom, wg),
        line_energy_(tech.cell, geom.line_bytes * 8),
        word_energy_(tech.cell, 64) {}

  void on_access(const AccessEvent& ev) override;

 private:
  // Same lookup tables as PlainPolicy, indexed by the *stored* (inverted)
  // '1' count.
  EnergyByOnes line_energy_;
  EnergyByOnes word_energy_;
};

/// Unattainable upper bound: every individual access magically uses the
/// cheaper of {raw, inverted} per partition, with zero switch, metadata,
/// or logic overhead. No real encoding scheme can beat it; CNT-Cache's
/// quality is measured as the fraction of this bound it captures.
class IdealPolicy final : public EnergyPolicyBase {
 public:
  IdealPolicy(std::string name, const TechParams& tech,
              const ArrayGeometry& geom, usize partitions,
              WriteGranularity wg = WriteGranularity::kWord);

  void on_access(const AccessEvent& ev) override;

 private:
  /// Cheaper of raw/inverted for fields of one fixed width, indexed by the
  /// raw '1' count: entry n is std::min of read_/write_energy_counts at n
  /// and width - n, so a lookup is the bit-identical double the formulas
  /// give.
  class MinEnergyByOnes {
   public:
    MinEnergyByOnes(const BitEnergies& e, usize width);
    [[nodiscard]] Energy read(usize ones) const noexcept {
      return read_[ones];
    }
    [[nodiscard]] Energy write(usize ones) const noexcept {
      return write_[ones];
    }

   private:
    std::vector<Energy> read_;
    std::vector<Energy> write_;
  };

  /// Best read of the whole line (every partition at its cheaper
  /// direction), from the event's ones profile.
  [[nodiscard]] Energy best_read(const AccessEvent& ev) const;
  /// best_read, reused from the line's memo when the cache reports the
  /// version it was priced at.
  [[nodiscard]] Energy read_cost(const AccessEvent& ev);
  /// Cheapest possible write of the bit range [lo, hi) of line_after,
  /// choosing the better of raw/inverted independently per overlapped
  /// partition.
  [[nodiscard]] Energy best_write(const AccessEvent& ev, usize bit_lo,
                                  usize bit_hi) const;

  /// The best read last priced for a line and the line_version it was
  /// priced at (0 = none).
  struct ReadMemo {
    u64 version = 0;
    Energy cost{};
  };

  PartitionScheme scheme_;
  MinEnergyByOnes part_min_;  ///< one whole partition
  MinEnergyByOnes word_min_;  ///< one 64-bit dirty word
  std::vector<ReadMemo> read_memo_;  ///< [sets * ways]
};

}  // namespace cnt
