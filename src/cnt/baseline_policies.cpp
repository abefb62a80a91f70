#include "cnt/baseline_policies.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

void PlainPolicy::on_access(const AccessEvent& ev) {
  charge_decode();
  charge_tag_lookup(ev);
  charge_ecc(ev);

  switch (ev.kind) {
    case AccessKind::kReadHit:
      ledger_.charge(EnergyCategory::kDataRead,
                     line_energy_.read(ev.ones_after_total));
      charge_output(transfer_bits(ev));
      break;

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = written_bit_range(ev);
      ledger_.charge(EnergyCategory::kDataWrite,
                     write_energy_counts(tech_.cell, hi - lo,
                                         profile_ones_range(ev.line_after,
                                                            ev.ones_after, lo,
                                                            hi)));
      charge_output(transfer_bits(ev));
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        // Writeback: a second array operation reads the victim's dirty
        // words out (all words unless sectored writebacks are on).
        charge_decode();
        Energy rd{};
        usize dirty_bits = 0;
        for_each_dirty_word(ev, [&](usize lo, usize hi) {
          rd += word_energy_.read(ev.ones_before[lo / 64]);
          dirty_bits += hi - lo;
        });
        ledger_.charge(EnergyCategory::kDataRead, rd);
        charge_output(dirty_bits);
      }
      // Fill write (a second/third array operation).
      charge_decode();
      ledger_.charge(EnergyCategory::kDataWrite,
                     line_energy_.write(ev.ones_after_total));
      charge_tag_write(ev);
      charge_output(array_.geometry().line_bits());
      break;
    }

    case AccessKind::kWriteAround:
      // The word bypasses this array; only the (missing) lookup was paid.
      break;
  }
}

void StaticInvertPolicy::on_access(const AccessEvent& ev) {
  charge_decode();
  charge_tag_lookup(ev);
  charge_ecc(ev);

  const usize line_bits = array_.geometry().line_bits();
  // Stored image is the complement: stored ones = L - logical ones.
  const usize inv_ones = line_bits - ev.ones_after_total;

  switch (ev.kind) {
    case AccessKind::kReadHit:
      ledger_.charge(EnergyCategory::kDataRead, line_energy_.read(inv_ones));
      ledger_.charge(EnergyCategory::kEncoderLogic,
                     static_cast<double>(line_bits) *
                         tech_.periph.encoder_per_bit);
      charge_output(transfer_bits(ev));
      break;

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = written_bit_range(ev);
      const usize ones =
          (hi - lo) - profile_ones_range(ev.line_after, ev.ones_after, lo, hi);
      ledger_.charge(EnergyCategory::kDataWrite,
                     write_energy_counts(tech_.cell, hi - lo, ones));
      ledger_.charge(EnergyCategory::kEncoderLogic,
                     static_cast<double>(line_bits) *
                         tech_.periph.encoder_per_bit);
      charge_output(transfer_bits(ev));
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        charge_decode();
        Energy rd{};
        usize dirty_bits = 0;
        for_each_dirty_word(ev, [&](usize lo, usize hi) {
          rd += word_energy_.read((hi - lo) - ev.ones_before[lo / 64]);
          dirty_bits += hi - lo;
        });
        ledger_.charge(EnergyCategory::kDataRead, rd);
        ledger_.charge(EnergyCategory::kEncoderLogic,
                       static_cast<double>(dirty_bits) *
                           tech_.periph.encoder_per_bit);
        charge_output(dirty_bits);
      }
      charge_decode();
      ledger_.charge(EnergyCategory::kDataWrite, line_energy_.write(inv_ones));
      ledger_.charge(EnergyCategory::kEncoderLogic,
                     static_cast<double>(line_bits) *
                         tech_.periph.encoder_per_bit);
      charge_tag_write(ev);
      charge_output(line_bits);
      break;
    }

    case AccessKind::kWriteAround:
      break;
  }
}

IdealPolicy::MinEnergyByOnes::MinEnergyByOnes(const BitEnergies& e,
                                              usize width)
    : read_(width + 1), write_(width + 1) {
  for (usize ones = 0; ones <= width; ++ones) {
    read_[ones] = std::min(read_energy_counts(e, width, ones),
                           read_energy_counts(e, width, width - ones));
    write_[ones] = std::min(write_energy_counts(e, width, ones),
                            write_energy_counts(e, width, width - ones));
  }
}

IdealPolicy::IdealPolicy(std::string name, const TechParams& tech,
                         const ArrayGeometry& geom, usize partitions,
                         WriteGranularity wg)
    : EnergyPolicyBase(std::move(name), tech, geom, wg),
      scheme_(geom.line_bytes, partitions),
      part_min_(tech.cell, scheme_.partition_bits()),
      word_min_(tech.cell, 64),
      read_memo_(geom.lines()) {}

Energy IdealPolicy::best_read(const AccessEvent& ev) const {
  Energy total{};
  for (usize p = 0; p < scheme_.partitions(); ++p) {
    total += part_min_.read(
        profile_partition_ones(scheme_, ev.line_after, ev.ones_after, p));
  }
  return total;
}

Energy IdealPolicy::read_cost(const AccessEvent& ev) {
  // A fill or a store gives the line a new version, so a memo keyed on
  // the version needs no invalidation.
  if (ev.line_version == 0) return best_read(ev);
  ReadMemo& memo =
      read_memo_[static_cast<usize>(ev.set) * array_.geometry().ways + ev.way];
  if (memo.version != ev.line_version) {
    memo.version = ev.line_version;
    memo.cost = best_read(ev);
  }
  return memo.cost;
}

Energy IdealPolicy::best_write(const AccessEvent& ev, usize bit_lo,
                               usize bit_hi) const {
  Energy total{};
  const usize pb = scheme_.partition_bits();
  const usize last_p = (bit_hi + pb - 1) / pb;
  for (usize p = bit_lo / pb; p < last_p; ++p) {
    const usize lo = std::max(bit_lo, scheme_.bit_begin(p));
    const usize hi = std::min(bit_hi, scheme_.bit_end(p));
    const usize width = hi - lo;
    const usize ones = profile_ones_range(ev.line_after, ev.ones_after, lo, hi);
    if (width == pb) {
      total += part_min_.write(ones);
    } else {
      total += std::min(write_energy_counts(tech_.cell, width, ones),
                        write_energy_counts(tech_.cell, width, width - ones));
    }
  }
  return total;
}

void IdealPolicy::on_access(const AccessEvent& ev) {
  charge_decode();
  charge_tag_lookup(ev);
  charge_ecc(ev);

  switch (ev.kind) {
    case AccessKind::kReadHit:
      ledger_.charge(EnergyCategory::kDataRead, read_cost(ev));
      charge_output(transfer_bits(ev));
      break;

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = written_bit_range(ev);
      ledger_.charge(EnergyCategory::kDataWrite, best_write(ev, lo, hi));
      charge_output(transfer_bits(ev));
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        charge_decode();
        Energy rd{};
        usize dirty_bits = 0;
        for_each_dirty_word(ev, [&](usize lo, usize hi) {
          rd += word_min_.read(ev.ones_before[lo / 64]);
          dirty_bits += hi - lo;
        });
        ledger_.charge(EnergyCategory::kDataRead, rd);
        charge_output(dirty_bits);
      }
      charge_decode();
      ledger_.charge(EnergyCategory::kDataWrite,
                     best_write(ev, 0, array_.geometry().line_bits()));
      charge_tag_write(ev);
      charge_output(array_.geometry().line_bits());
      break;
    }

    case AccessKind::kWriteAround:
      break;
  }
}

}  // namespace cnt
