// Comparator policies: the baseline CNFET cache (no encoding), the CMOS
// cache (same class, CMOS parameters), a static always-invert encoder, and
// the unattainable per-access oracle.
//
// All four are one implementation, ComparatorPolicy, which differs only in
// how a field is stored (as-is, complemented, or whichever is cheaper) and
// how finely it is priced (the whole line, or the oracle's K partitions).
// Every comparator watches the same event, so ComparatorSink prices any
// set of them in one pass: one dispatch, one switch on the access kind,
// one written-range count and one dirty-word walk per event, and the
// peripheral charges (decode, tag, output, protection) once per
// technology instead of once per comparator.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cnt/encoding.hpp"
#include "cnt/policy_base.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

/// One comparator. Attached to a cache on its own it is a complete
/// policy: its ledger holds every charge. Inside a ComparatorSink its
/// ledger holds its data-array (and encoder) charges, and its
/// technology's peripheral charges too unless another comparator of the
/// same technology shares them (see ComparatorSink).
class ComparatorPolicy : public EnergyPolicyBase {
 public:
  ComparatorPolicy(const ComparatorPolicy&) = delete;
  ComparatorPolicy& operator=(const ComparatorPolicy&) = delete;

  /// Prices this comparator alone: the comparator pass with one member.
  void on_access(const AccessEvent& ev) final;

 protected:
  /// `store` is how a field sits in the array (kInverted also pays the
  /// encoder data path; kCheaper is the oracle, which chooses for free).
  /// `partitions` is how finely the cheaper direction is chosen; the raw
  /// and inverted stores price the whole line as one field.
  ComparatorPolicy(std::string name, const TechParams& tech,
                   const ArrayGeometry& geom, WriteGranularity wg,
                   FieldStore store, usize partitions);

 private:
  friend class ComparatorSink;

  /// The peripherals of one technology and the ledger they charge.
  struct Peripherals {
    ComparatorPolicy* pricer;
    EnergyLedger* ledger;
  };

  /// One member of a comparator pass: the ledger its data-array and
  /// encoder charges go to, and what a read hit needs, copied out of the
  /// policy so that the pass reads its members from one small array.
  struct Lane {
    ComparatorPolicy* policy;
    EnergyLedger* ledger;
    const Energy* line_read;  ///< read by '1' count; null when partitioned
    Energy encoder_line;      ///< encoder charge for one whole line
    bool encodes;             ///< the store is inverted
  };
  [[nodiscard]] Lane lane() noexcept {
    return {this, &ledger_, line_read_, encoder_line_, encodes_};
  }

  /// The comparator pass: price `ev` for every lane. Each technology's
  /// peripherals charge its own ledger once; each lane charges its own
  /// ledger with its data-array lookups and, when inverted, the encoder.
  /// Members share one geometry, write granularity and protection
  /// (ComparatorSink::add checks). Instantiated for one technology and
  /// one lane (a comparator alone, or a sink of one), where the loops
  /// fold away, and for any count.
  template <usize kTechs, usize kLanes>
  static void price(const AccessEvent& ev,
                    std::span<const Peripherals, kTechs> techs,
                    std::span<const Lane, kLanes> lanes);

  /// Read of the whole line priced in partitions: their sum, reused from
  /// the line's memo while the cache reports the version it was priced at.
  [[nodiscard]] Energy partitioned_read(const AccessEvent& ev);
  /// Write of bits [bit_lo, bit_hi) of line_after, of which `ones` are
  /// '1': one piece when the line is one partition, else each overlapped
  /// partition priced on its own (partitioned_write).
  [[nodiscard]] Energy write_cost(const AccessEvent& ev, usize bit_lo,
                                  usize bit_hi, usize ones) const;
  [[nodiscard]] Energy partitioned_write(const AccessEvent& ev, usize bit_lo,
                                         usize bit_hi, usize ones) const;
  /// Write of a `width`-bit piece of one partition holding `ones` '1's:
  /// a table lookup for a whole partition or a 64-bit word, else the
  /// formula (the same doubles either way).
  [[nodiscard]] Energy piece_write(usize width, usize ones) const;

  /// The read cost last priced for a line and the line_version it was
  /// priced at (0 = none).
  struct ReadMemo {
    u64 version = 0;
    Energy cost{};
  };

  // What a pass reads of this comparator on every event comes first,
  // next to the last fields of EnergyPolicyBase.
  const Energy* line_read_ = nullptr;  ///< field_'s read table when K = 1
  Energy encoder_line_;
  bool encodes_;  ///< the store is inverted
  FieldStore store_;
  PartitionScheme scheme_;
  EnergyByOnes field_;  ///< one partition (the whole line when K = 1)
  EnergyByOnes word_;   ///< one 64-bit word (dirty words, word stores)
  std::vector<ReadMemo> read_memo_;  ///< [sets * ways] when K > 1
};

/// Conventional cache: data stored as-is. Instantiate with
/// TechParams::cnfet() for the paper's baseline CNFET cache, or
/// TechParams::cmos() for the CMOS reference.
class PlainPolicy final : public ComparatorPolicy {
 public:
  PlainPolicy(std::string name, const TechParams& tech,
              const ArrayGeometry& geom,
              WriteGranularity wg = WriteGranularity::kWord)
      : ComparatorPolicy(std::move(name), tech, geom, wg, FieldStore::kRaw,
                         1) {}
};

/// Static whole-line inversion: every line is stored complemented. Needs no
/// per-line metadata (the direction is global) but pays the encoder
/// data-path energy. Wins only when workload data is biased the right way
/// for the access mix -- the strawman that motivates *adaptive* encoding.
class StaticInvertPolicy final : public ComparatorPolicy {
 public:
  StaticInvertPolicy(std::string name, const TechParams& tech,
                     const ArrayGeometry& geom,
                     WriteGranularity wg = WriteGranularity::kWord)
      : ComparatorPolicy(std::move(name), tech, geom, wg,
                         FieldStore::kInverted, 1) {}
};

/// Unattainable upper bound: every individual access magically uses the
/// cheaper of {raw, inverted} per partition, with zero switch, metadata,
/// or logic overhead. No real encoding scheme can beat it; CNT-Cache's
/// quality is measured as the fraction of this bound it captures.
class IdealPolicy final : public ComparatorPolicy {
 public:
  IdealPolicy(std::string name, const TechParams& tech,
              const ArrayGeometry& geom, usize partitions,
              WriteGranularity wg = WriteGranularity::kWord)
      : ComparatorPolicy(std::move(name), tech, geom, wg,
                         FieldStore::kCheaper, partitions) {}
};

/// Any set of comparators watching one cache, priced in one pass per
/// event. Comparators of one technology share one peripheral ledger, so
/// cnfet_base, static_inv and ideal pay decode, tag, output and ECC once
/// and cmos once more. Each comparator's own ledger takes its data-array
/// charges, and also its peripherals when no other comparator shares its
/// technology. ledger(i) merges the shared peripheral ledger in; the two
/// hold disjoint categories, so every merged ledger is bit-identical to
/// the comparator's ledger when it runs alone.
class ComparatorSink final : public AccessSink {
 public:
  /// Take `p` as the next comparator. Set its protection first. Throws
  /// std::invalid_argument if its geometry, write granularity or
  /// protection differs from the first comparator's.
  void add(std::unique_ptr<ComparatorPolicy> p);

  [[nodiscard]] usize size() const noexcept { return owned_.size(); }
  [[nodiscard]] const std::string& name(usize i) const {
    return owned_[i]->name();
  }
  /// Comparator i's full ledger: its data-array charges plus its
  /// technology's peripheral charges.
  [[nodiscard]] EnergyLedger ledger(usize i) const;

  /// What to attach to the cache: with one comparator, that comparator
  /// itself (its own pass is the one-member pass and charges the same
  /// ledger, one indirection sooner); else this sink.
  [[nodiscard]] AccessSink& entry() noexcept {
    return owned_.size() == 1 ? static_cast<AccessSink&>(*owned_.front())
                              : *this;
  }

  void on_access(const AccessEvent& ev) override;

 private:
  std::vector<std::unique_ptr<ComparatorPolicy>> owned_;  ///< add order
  std::vector<ComparatorPolicy::Lane> lanes_;             ///< add order
  std::vector<usize> tech_of_;  ///< comparator i -> its technology
  std::vector<ComparatorPolicy::Peripherals> techs_;
  /// techs_[t]'s shared ledger; stays zero while t has one comparator,
  /// which then takes its peripheral charges in its own ledger.
  std::vector<EnergyLedger> periph_;
};

}  // namespace cnt
