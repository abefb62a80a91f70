#include "cnt/baseline_policies.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "common/bits.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

ComparatorPolicy::ComparatorPolicy(std::string name, const TechParams& tech,
                                   const ArrayGeometry& geom,
                                   WriteGranularity wg, FieldStore store,
                                   usize partitions)
    : EnergyPolicyBase(std::move(name), tech, geom, wg),
      encoder_line_(static_cast<double>(geom.line_bits()) *
                    tech.periph.encoder_per_bit),
      encodes_(store == FieldStore::kInverted),
      store_(store),
      scheme_(geom.line_bytes, partitions),
      field_(tech.cell, scheme_.partition_bits(), store),
      word_(tech.cell, 64, store),
      read_memo_(partitions > 1 ? geom.lines() : 0) {
  if (partitions == 1) line_read_ = field_.read_table();
}

// Defined ahead of the pass, so that a one-partition write is inlined
// into it.
inline Energy ComparatorPolicy::piece_write(usize width, usize ones) const {
  if (width == scheme_.partition_bits()) return field_.write(ones);
  if (width == 64) return word_.write(ones);  // a whole 64-bit store
  const BitEnergies& e = tech_.cell;
  return stored_energy(
      [&e](usize w, usize n) { return write_energy_counts(e, w, n); }, width,
      ones, store_);
}

inline Energy ComparatorPolicy::write_cost(const AccessEvent& ev,
                                           usize bit_lo, usize bit_hi,
                                           usize ones) const {
  // One partition: the whole range is one piece (and no division).
  if (line_read_ != nullptr) return piece_write(bit_hi - bit_lo, ones);
  return partitioned_write(ev, bit_lo, bit_hi, ones);
}

// cnt-hot
// Forced inline: each instantiation has one caller, and a call per event
// costs more than the pass itself when it has one member.
template <usize kTechs, usize kLanes>
[[gnu::always_inline]] inline void ComparatorPolicy::price(
    const AccessEvent& ev, std::span<const Peripherals, kTechs> techs,
    std::span<const Lane, kLanes> lanes) {
  const ComparatorPolicy& first = *lanes.front().policy;
  const usize line_bits = first.array_.geometry().line_bits();
  for (const Peripherals& t : techs) {
    t.pricer->charge_decode(*t.ledger);
    t.pricer->charge_tag_lookup(*t.ledger, ev);
    t.pricer->charge_ecc(*t.ledger, ev);
  }

  switch (ev.kind) {
    case AccessKind::kReadHit: {
      for (const Lane& l : lanes) {
        l.ledger->charge(EnergyCategory::kDataRead,
                         l.line_read != nullptr
                             ? l.line_read[ev.ones_after_total]
                             : l.policy->partitioned_read(ev));
        if (l.encodes) {
          l.ledger->charge(EnergyCategory::kEncoderLogic, l.encoder_line);
        }
      }
      const usize bits = first.transfer_bits(ev);
      for (const Peripherals& t : techs) {
        t.pricer->charge_output(*t.ledger, bits);
      }
      break;
    }

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = first.written_bit_range(ev);
      const usize ones =
          profile_ones_range(ev.line_after, ev.ones_after, lo, hi);
      for (const Lane& l : lanes) {
        l.ledger->charge(EnergyCategory::kDataWrite,
                         l.policy->write_cost(ev, lo, hi, ones));
        if (l.encodes) {
          l.ledger->charge(EnergyCategory::kEncoderLogic, l.encoder_line);
        }
      }
      const usize bits = first.transfer_bits(ev);
      for (const Peripherals& t : techs) {
        t.pricer->charge_output(*t.ledger, bits);
      }
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        // Writeback: a second array operation reads the victim's dirty
        // words out (all words unless sectored writebacks are on).
        std::array<u8, 64> dirty_ones;  // the mask covers <= 64 words
        usize dirty_words = 0;
        usize dirty_bits = 0;
        first.for_each_dirty_word(ev, [&](usize lo, usize hi) {
          dirty_ones[dirty_words++] = ev.ones_before[lo / 64];
          dirty_bits += hi - lo;
        });
        for (const Lane& l : lanes) {
          Energy rd{};
          for (usize w = 0; w < dirty_words; ++w) {
            rd += l.policy->word_.read(dirty_ones[w]);
          }
          l.ledger->charge(EnergyCategory::kDataRead, rd);
          if (l.encodes) {
            l.ledger->charge(EnergyCategory::kEncoderLogic,
                             static_cast<double>(dirty_bits) *
                                 l.policy->tech_.periph.encoder_per_bit);
          }
        }
        for (const Peripherals& t : techs) {
          t.pricer->charge_decode(*t.ledger);
          t.pricer->charge_output(*t.ledger, dirty_bits);
        }
      }
      // Fill write (a second/third array operation).
      for (const Lane& l : lanes) {
        l.ledger->charge(
            EnergyCategory::kDataWrite,
            l.policy->write_cost(ev, 0, line_bits, ev.ones_after_total));
        if (l.encodes) {
          l.ledger->charge(EnergyCategory::kEncoderLogic, l.encoder_line);
        }
      }
      for (const Peripherals& t : techs) {
        t.pricer->charge_decode(*t.ledger);
        t.pricer->charge_tag_write(*t.ledger, ev);
        t.pricer->charge_output(*t.ledger, line_bits);
      }
      break;
    }

    case AccessKind::kWriteAround:
      // The word bypasses this array; only the (missing) lookup was paid.
      break;
  }
}

void ComparatorPolicy::on_access(const AccessEvent& ev) {
  const Peripherals self{this, &ledger_};
  const Lane me = lane();
  price(ev, std::span<const Peripherals, 1>(&self, 1),
        std::span<const Lane, 1>(&me, 1));
}

Energy ComparatorPolicy::partitioned_read(const AccessEvent& ev) {
  const auto best_read = [&] {
    Energy total{};
    for (usize p = 0; p < scheme_.partitions(); ++p) {
      total += field_.read(
          profile_partition_ones(scheme_, ev.line_after, ev.ones_after, p));
    }
    return total;
  };
  // A fill or a store gives the line a new version, so a memo keyed on
  // the version needs no invalidation.
  if (ev.line_version == 0) return best_read();
  ReadMemo& memo =
      read_memo_[static_cast<usize>(ev.set) * array_.geometry().ways + ev.way];
  if (memo.version != ev.line_version) {
    memo.version = ev.line_version;
    memo.cost = best_read();
  }
  return memo.cost;
}

Energy ComparatorPolicy::partitioned_write(const AccessEvent& ev,
                                           usize bit_lo, usize bit_hi,
                                           usize ones) const {
  const usize pb = scheme_.partition_bits();
  const usize first_p = bit_lo / pb;
  const usize last_p = (bit_hi + pb - 1) / pb;
  if (last_p - first_p == 1) return piece_write(bit_hi - bit_lo, ones);
  Energy total{};
  for (usize p = first_p; p < last_p; ++p) {
    const usize lo = std::max(bit_lo, scheme_.bit_begin(p));
    const usize hi = std::min(bit_hi, scheme_.bit_end(p));
    total += piece_write(
        hi - lo, profile_ones_range(ev.line_after, ev.ones_after, lo, hi));
  }
  return total;
}

void ComparatorSink::add(std::unique_ptr<ComparatorPolicy> p) {
  if (!owned_.empty()) {
    const ComparatorPolicy& first = *owned_.front();
    if (p->write_granularity() != first.write_granularity() ||
        p->array().geometry() != first.array().geometry() ||
        p->protection() != first.protection()) {
      throw std::invalid_argument(
          "ComparatorSink: comparators must share one geometry, write "
          "granularity and protection");
    }
  }
  // With geometry and protection shared, the technology alone decides
  // the peripheral charges.
  usize t = 0;
  while (t < techs_.size() && techs_[t].pricer->tech() != p->tech()) ++t;
  if (t == techs_.size()) {
    techs_.push_back({p.get(), nullptr});
    periph_.emplace_back();
  }
  tech_of_.push_back(t);
  lanes_.push_back(p->lane());
  owned_.push_back(std::move(p));
  // A technology with one comparator charges its peripherals into that
  // comparator's own ledger, a shared one into periph_ (which growing
  // may have moved: repoint every one).
  for (usize k = 0; k < techs_.size(); ++k) {
    techs_[k].ledger = std::ranges::count(tech_of_, k) > 1
                           ? &periph_[k]
                           : &techs_[k].pricer->ledger_;
  }
}

// cnt-hot
void ComparatorSink::on_access(const AccessEvent& ev) {
  ComparatorPolicy::price(ev, std::span(std::as_const(techs_)),
                          std::span(std::as_const(lanes_)));
}

EnergyLedger ComparatorSink::ledger(usize i) const {
  EnergyLedger out = owned_[i]->ledger();
  out.merge(periph_[tech_of_[i]]);
  return out;
}

}  // namespace cnt
