// Shared machinery for energy-accounting policies (AccessSink adapters).
//
// A policy observes the functional cache's access events and charges an
// EnergyLedger according to its storage scheme. All policies charge the
// same peripheral costs (decode, tag, output) through the helpers here, so
// differences between ledgers isolate the data-array encoding effects.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/access_event.hpp"
#include "common/bits.hpp"
#include "common/types.hpp"
#include "energy/array_model.hpp"
#include "energy/energy_ledger.hpp"
#include "energy/tech_params.hpp"
#include "common/protection.hpp"

namespace cnt {

/// How much of the data array a store drives.
///
/// In a column-muxed SRAM a *read* discharges the bitlines of every cell on
/// the asserted row (the whole line's worth of columns), but a *write* only
/// drives the accessed word's columns through the write drivers. kWord
/// models that physics and is the library default; kLine is the paper's
/// simplification (Eqs. (4)/(5) charge L bits per access in both
/// directions) and is kept as the paper-exact ablation.
enum class WriteGranularity : u8 {
  kLine,  ///< every store writes all L line bits (paper model)
  kWord,  ///< a store writes only the accessed word's bits (physical model)
};

[[nodiscard]] constexpr const char* to_string(WriteGranularity g) noexcept {
  return g == WriteGranularity::kLine ? "line" : "word";
}

class EnergyPolicyBase : public AccessSink {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const EnergyLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] const ArrayModel& array() const noexcept { return array_; }
  [[nodiscard]] const TechParams& tech() const noexcept { return tech_; }
  [[nodiscard]] WriteGranularity write_granularity() const noexcept {
    return write_gran_;
  }

  /// Configure the protection scheme this policy's array carries (default:
  /// none, zero cost). The runner sizes the spec per policy -- baseline
  /// arrays cover the data line, the CNT array also covers its direction
  /// bits -- and widens the array geometry's meta_bits by spec.check_bits
  /// so decode and leakage see the wider rows.
  void set_protection(const ProtectionSpec& spec) noexcept {
    prot_ = spec;
    // Per-operation protection energies depend only on the spec and the
    // technology, so they are priced once here (the same expressions, so
    // the same doubles) instead of on every array operation.
    const double check = 0.5 * static_cast<double>(prot_.check_bits);
    ecc_read_storage_ = (tech_.cell.rd0 + tech_.cell.rd1) * check;
    ecc_write_storage_ = (tech_.cell.wr0 + tech_.cell.wr1) * check;
    ecc_check_logic_ = tech_.periph.ecc_check_per_bit *
                       static_cast<double>(prot_.covered_bits);
  }
  [[nodiscard]] const ProtectionSpec& protection() const noexcept {
    return prot_;
  }

 protected:
  EnergyPolicyBase(std::string name, const TechParams& tech,
                   const ArrayGeometry& geom,
                   WriteGranularity write_gran = WriteGranularity::kWord)
      : name_(std::move(name)),
        tech_(tech),
        array_(tech, geom),
        write_gran_(write_gran),
        set_tag_bits_((geom.tag_bits + geom.state_bits) * geom.ways),
        set_tag_lookup_(set_tag_bits_ + 1) {
    for (usize ones = 0; ones <= set_tag_bits_; ++ones) {
      set_tag_lookup_[ones] = array_.tag_lookup_energy(set_tag_bits_, ones);
    }
  }

  /// Bit range of the line a write-hit drives under the configured
  /// granularity. ev.size == 0 (line-granular traffic from an upper level)
  /// always drives the whole line.
  [[nodiscard]] std::pair<usize, usize> written_bit_range(
      const AccessEvent& ev) const noexcept {
    if (write_gran_ == WriteGranularity::kLine || ev.size == 0) {
      return {0, array_.geometry().line_bits()};
    }
    const usize lo = static_cast<usize>(ev.offset) * 8;
    return {lo, lo + static_cast<usize>(ev.size) * 8};
  }

  /// Row decode + wordline for one array operation.
  void charge_decode() {
    ledger_.charge(EnergyCategory::kDecode, array_.decode_energy());
  }

  /// Tag-side lookup for this access. A full-set probe is priced from
  /// the per-ones table (the same doubles the formula gives); a
  /// way-predicted one-way probe runs the formula.
  void charge_tag_lookup(const AccessEvent& ev) {
    ledger_.charge(EnergyCategory::kTagRead,
                   ev.tag_bits_read == set_tag_bits_
                       ? set_tag_lookup_[ev.tag_ones_read]
                       : array_.tag_lookup_energy(ev.tag_bits_read,
                                                  ev.tag_ones_read));
  }

  /// Tag write on a fill.
  void charge_tag_write(const AccessEvent& ev) {
    if (ev.tag_bits_written != 0) {
      ledger_.charge(EnergyCategory::kTagWrite,
                     array_.tag_write_energy(ev.tag_bits_written,
                                             ev.tag_ones_written));
    }
  }

  /// IO drivers for `bits` transferred.
  void charge_output(usize bits) {
    ledger_.charge(EnergyCategory::kOutput, array_.output_energy(bits));
  }

  /// Bits moved to/from the CPU for this access (the word, or the whole
  /// line for line-granular traffic from an upper level, ev.size == 0).
  [[nodiscard]] usize transfer_bits(const AccessEvent& ev) const noexcept {
    return ev.size != 0 ? static_cast<usize>(ev.size) * 8
                        : array_.geometry().line_bits();
  }

  // --- Protection (parity/SECDED) costs -------------------------------
  // Check-bit storage traffic is priced at the cell's value-averaged
  // per-bit energies (check-bit contents are not tracked; their 0/1 mix
  // averages out), and checker logic at ecc_check_per_bit per covered
  // payload bit: the syndrome/parity tree sees the whole codeword on
  // every protected operation, including partial-word writes (RMW of the
  // check field).

  /// Checker pass + check-bit read for one protected array read.
  void charge_ecc_read() {
    if (!prot_.enabled()) return;
    ledger_.charge(EnergyCategory::kEccStorage, ecc_read_storage_);
    ledger_.charge(EnergyCategory::kEccLogic, ecc_check_logic_);
  }

  /// Check-bit regeneration + write for one protected array write.
  void charge_ecc_write() {
    if (!prot_.enabled()) return;
    ledger_.charge(EnergyCategory::kEccStorage, ecc_write_storage_);
    ledger_.charge(EnergyCategory::kEccLogic, ecc_check_logic_);
  }

  /// Correction-path events reported by the fault campaign for this
  /// access (corrected bits + detections both drive the syndrome decoder).
  void charge_ecc_events(const LineFaultReport& rep) {
    if (!prot_.enabled()) return;
    const u32 events = rep.corrected + rep.detected;
    if (events == 0) return;
    ledger_.charge(EnergyCategory::kEccLogic,
                   tech_.periph.ecc_correct_per_event *
                       static_cast<double>(events));
  }

  /// Full per-access protection accounting: one checker pass per array
  /// operation this event implies (demand read/write, victim writeback
  /// read, fill write) plus the campaign's correction events. Policies
  /// whose extra array operations are not visible on the event (CNT
  /// re-encodes, FIFO drains) charge those separately.
  void charge_ecc(const AccessEvent& ev) {
    if (!prot_.enabled()) return;
    switch (ev.kind) {
      case AccessKind::kReadHit:
        charge_ecc_read();
        break;
      case AccessKind::kWriteHit:
        charge_ecc_write();
        break;
      case AccessKind::kReadMissFill:
      case AccessKind::kWriteMissFill:
        if (ev.evicted_valid && ev.evicted_dirty) charge_ecc_read();
        charge_ecc_write();
        break;
      case AccessKind::kWriteAround:
        return;
    }
    charge_ecc_events(ev.fault);
  }

  /// Invoke fn(bit_lo, bit_hi) for every dirty 8-byte word of the evicted
  /// victim (sectored writebacks narrow the mask; otherwise it covers the
  /// whole line). Returns the number of dirty words visited.
  template <typename Fn>
  // cnt-lint: nodiscard-ok -- the visited count is auxiliary telemetry
  usize for_each_dirty_word(const AccessEvent& ev, Fn&& fn) const {
    const usize words = array_.geometry().line_bytes / 8;
    usize visited = 0;
    for (usize w = 0; w < words; ++w) {
      if ((ev.evicted_dirty_words >> w) & 1u) {
        fn(w * 64, w * 64 + 64);
        ++visited;
      }
    }
    return visited;
  }

  std::string name_;
  TechParams tech_;
  ArrayModel array_;
  EnergyLedger ledger_;
  WriteGranularity write_gran_;
  // Tag lookup energy of a full-set probe, indexed by the '1' count of
  // the set's tag+state bits.
  usize set_tag_bits_;
  std::vector<Energy> set_tag_lookup_;
  ProtectionSpec prot_{};
  // Protection energies per array operation (set by set_protection).
  Energy ecc_read_storage_{};
  Energy ecc_write_storage_{};
  Energy ecc_check_logic_{};
};

}  // namespace cnt
