// Fault-campaign configuration: the reliability knobs of the simulator.
//
// CNFET arrays are defect-prone by construction -- metallic tubes that
// survive removal and missing tubes leave cells stuck at a value, and the
// reduced noise margins raise transient upset rates. A FaultConfig
// describes one deterministic campaign: where permanent stuck-at cells
// land (seeded placement from a defect density), how often transient
// read-disturb/retention flips strike, and which protection scheme the
// array pays for. All-zero knobs (the default) disable the subsystem
// entirely; the hot paths then never touch it.
#pragma once

#include "common/protection.hpp"
#include "common/types.hpp"

namespace cnt {

struct FaultConfig {
  /// Expected permanent stuck-at cells per 2^20 array bits (data and
  /// direction-bit arrays are seeded independently at the same density).
  /// The realized count is round(expected) -- deterministic in the seed.
  double stuck_per_mbit = 0.0;
  /// Fraction of stuck cells stuck at '1' (the rest stick at '0').
  double stuck_at1_fraction = 0.5;
  /// Per-bit probability of a transient flip on each array read of the
  /// bit (read disturb / retention upsets surfacing at read time).
  double transient_per_read = 0.0;
  /// Protection scheme charged to every policy's ledger.
  ProtectionScheme protection = ProtectionScheme::kNone;
  /// Extend the line codeword over the per-partition direction bits
  /// (CNT-Cache only; the baseline array has no direction bits).
  bool protect_directions = true;
  /// Campaign seed: stuck-cell placement and transient arrival times.
  u64 seed = 0xFA013;

  /// True when any fault machinery must be active. The disabled default
  /// keeps every simulation bit-identical to a build without the fault
  /// subsystem (no hooks installed, no energy charged, no RNG consumed).
  [[nodiscard]] bool enabled() const noexcept {
    return stuck_per_mbit > 0.0 || transient_per_read > 0.0 ||
           protection != ProtectionScheme::kNone;
  }

  /// Reject knobs outside their meaning: a negative or NaN probability
  /// would silently disable transients and one above 1 would flip every
  /// bit. Throws ValueError (Errc::kRange) naming the INI key
  /// (fault.stuck_per_mbit, fault.stuck_at1, fault.transient_per_read).
  void validate() const;
};

}  // namespace cnt
