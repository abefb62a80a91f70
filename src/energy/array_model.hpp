// CACTI-lite analytical array model.
//
// CACTI-style tools decompose a cache access into decoder, wordline,
// bitline/cell, sense, tag, and output components. We keep that
// decomposition but at first order: the data-dependent column energy
// (cell + bitline + sense/write driver) is the BitEnergies table, and this
// model supplies the data-independent peripheral components plus tag-array
// accounting, leakage, and a coarse area estimate.
//
// Access policy is *serial* tag-then-data (common for energy-optimized L1s
// and matching the paper's accounting, which charges the data array for
// exactly one line per access): every lookup reads all ways' tags; only the
// matching way's data columns are then accessed.
#pragma once

#include <cassert>

#include "common/types.hpp"
#include "common/units.hpp"
#include "energy/sram_cell.hpp"
#include "energy/tech_params.hpp"

namespace cnt {

/// Physical organization of one cache array, as seen by the energy model.
struct ArrayGeometry {
  usize sets = 64;             ///< number of sets (power of two)
  usize ways = 4;              ///< associativity
  usize line_bytes = 64;       ///< data bytes per line
  usize tag_bits = 20;         ///< stored tag width per line
  usize meta_bits = 0;         ///< extra per-line bits (CNT-Cache H&D field)
  usize state_bits = 2;        ///< valid + dirty (read with the tag)

  [[nodiscard]] usize line_bits() const noexcept { return line_bytes * 8; }
  [[nodiscard]] usize lines() const noexcept { return sets * ways; }
  [[nodiscard]] usize data_cells() const noexcept {
    return lines() * line_bits();
  }
  [[nodiscard]] usize tag_cells() const noexcept {
    return lines() * (tag_bits + state_bits);
  }
  [[nodiscard]] usize meta_cells() const noexcept {
    return lines() * meta_bits;
  }
  [[nodiscard]] usize total_cells() const noexcept {
    return data_cells() + tag_cells() + meta_cells();
  }
  [[nodiscard]] usize capacity_bytes() const noexcept {
    return lines() * line_bytes;
  }
  friend bool operator==(const ArrayGeometry&,
                         const ArrayGeometry&) = default;
};

/// Per-access peripheral energies for a fixed geometry + technology.
/// Construct once per cache; all values are precomputed.
class ArrayModel {
 public:
  ArrayModel(const TechParams& tech, const ArrayGeometry& geom);

  [[nodiscard]] const ArrayGeometry& geometry() const noexcept {
    return geom_;
  }
  [[nodiscard]] const TechParams& tech() const noexcept { return tech_; }

  /// Row decode + wordline assertion for one data-array access.
  [[nodiscard]] Energy decode_energy() const noexcept { return decode_; }

  // The per-access accessors below are inline: every energy policy calls
  // several of them per simulated access, and at replay speed the call
  // overhead outweighs the two multiplies they perform.

  /// Tag-side lookup: reads tag+state bits of all ways in the set (stored
  /// pattern passed in as `tag_ones` over `tag_bits_read` total bits) and
  /// runs the comparators.
  [[nodiscard]] Energy tag_lookup_energy(usize tag_bits_read,
                                         usize tag_ones) const noexcept {
    assert(tag_ones <= tag_bits_read);
    return read_energy_counts(tech_.cell, tag_bits_read, tag_ones) +
           static_cast<double>(tag_bits_read) *
               tech_.periph.tag_compare_per_bit;
  }

  /// Writing a tag (on fill): per-bit write energy over the stored pattern.
  [[nodiscard]] Energy tag_write_energy(usize tag_bits_written,
                                        usize tag_ones) const noexcept {
    assert(tag_ones <= tag_bits_written);
    return write_energy_counts(tech_.cell, tag_bits_written, tag_ones);
  }

  /// Output-driver energy for transferring `bits` to/from the CPU side.
  [[nodiscard]] Energy output_energy(usize bits) const noexcept {
    return static_cast<double>(bits) * tech_.periph.output_per_bit;
  }

  /// Total static leakage power of the array in watts (data+tag+meta).
  [[nodiscard]] double leakage_watts() const noexcept;

  /// First-order area estimate in um^2 (cells only, 6T cell footprint),
  /// used to report the H&D metadata overhead of CNT-Cache.
  [[nodiscard]] double area_um2() const noexcept;

 private:
  TechParams tech_;
  ArrayGeometry geom_;
  Energy decode_{};
};

}  // namespace cnt
