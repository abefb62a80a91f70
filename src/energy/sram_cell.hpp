// SRAM cell/word energy helpers: bit-pattern-dependent read & write energy.
//
// Implements the per-access energy sums the paper uses in Eqs. (4)/(5):
// reading a stored pattern costs N1*E_rd1 + (L-N1)*E_rd0 and writing a
// pattern costs N1*E_wr1 + (L-N1)*E_wr0, where N1 is the number of '1'
// bits among the L bits touched.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "energy/tech_params.hpp"

namespace cnt {

/// Energy to read `bit_count` stored bits of which `ones` are '1'.
[[nodiscard]] constexpr Energy read_energy_counts(const BitEnergies& e,
                                                  usize bit_count,
                                                  usize ones) noexcept {
  return static_cast<double>(ones) * e.rd1 +
         static_cast<double>(bit_count - ones) * e.rd0;
}

/// Energy to write `bit_count` bits of which `ones` are '1'.
[[nodiscard]] constexpr Energy write_energy_counts(const BitEnergies& e,
                                                   usize bit_count,
                                                   usize ones) noexcept {
  return static_cast<double>(ones) * e.wr1 +
         static_cast<double>(bit_count - ones) * e.wr0;
}

/// Energy to read the stored byte buffer (all bits). Inline: the baseline
/// policies call this once per hit/fill, and the word-packed popcount is
/// cheaper than an out-of-line call at replay speed.
[[nodiscard]] inline Energy read_energy(const BitEnergies& e,
                                        std::span<const u8> stored) noexcept {
  return read_energy_counts(e, stored.size() * 8, popcount(stored));
}

/// Energy to write the byte buffer (paper model: every written bit is
/// charged at its value's write energy, regardless of the old content).
[[nodiscard]] inline Energy write_energy(const BitEnergies& e,
                                         std::span<const u8> data) noexcept {
  return write_energy_counts(e, data.size() * 8, popcount(data));
}

/// How a field's logical bits sit in the array: as-is, complemented, or
/// -- the per-access oracle -- in whichever of the two images is cheaper
/// for the access at hand.
enum class FieldStore : u8 { kRaw, kInverted, kCheaper };

/// Energy of a `width`-bit field holding `ones` logical '1's stored as
/// `store`; `counts` is read_ or write_energy_counts bound to a cell.
template <class Counts>
[[nodiscard]] constexpr Energy stored_energy(Counts counts, usize width,
                                             usize ones, FieldStore store) {
  switch (store) {
    case FieldStore::kRaw:
      return counts(width, ones);
    case FieldStore::kInverted:
      return counts(width, width - ones);
    case FieldStore::kCheaper:
      break;
  }
  return std::min(counts(width, ones), counts(width, width - ones));
}

/// Precomputed read/write energies for a fixed field width, indexed by the
/// field's logical '1' count and stored as `store` (kRaw: the logical
/// count is the stored count). Entries are produced by
/// read_/write_energy_counts themselves, so a lookup returns the
/// bit-identical double the formula would -- the table only removes the
/// per-call conversions and multiplies from loops that price one
/// fixed-width field per iteration (partitions, dirty words).
class EnergyByOnes {
 public:
  EnergyByOnes() = default;
  EnergyByOnes(const BitEnergies& e, usize width,
               FieldStore store = FieldStore::kRaw)
      : read_(width + 1), write_(width + 1) {
    const auto rd = [&e](usize w, usize n) {
      return read_energy_counts(e, w, n);
    };
    const auto wr = [&e](usize w, usize n) {
      return write_energy_counts(e, w, n);
    };
    for (usize ones = 0; ones <= width; ++ones) {
      read_[ones] = stored_energy(rd, width, ones, store);
      write_[ones] = stored_energy(wr, width, ones, store);
    }
  }

  [[nodiscard]] Energy read(usize ones) const noexcept { return read_[ones]; }
  [[nodiscard]] Energy write(usize ones) const noexcept { return write_[ones]; }
  /// The read entries, for a caller that keeps the table's address.
  [[nodiscard]] const Energy* read_table() const noexcept {
    return read_.data();
  }

 private:
  std::vector<Energy> read_;
  std::vector<Energy> write_;
};

/// Flip-aware write model (ablation): only bits that change value are
/// charged, at the energy of the *new* value; unchanged bits cost the
/// (cheap) retention-write energy `e.wr0 * kUnchangedFactor`.
/// Precondition: old_data.size() == new_data.size().
[[nodiscard]] Energy write_energy_flip_aware(
    const BitEnergies& e, std::span<const u8> old_data,
    std::span<const u8> new_data) noexcept;

}  // namespace cnt
