// Protection vocabulary shared across layers: which code an array pays
// for, and the per-line check-bit geometry that energy policies charge.
//
// The scheme enum and the spec struct live in common/ because they cross
// the layering boundary in both directions: the fault subsystem *builds*
// specs (fault/protection.hpp owns the code math), while the energy
// policies in src/cnt *consume* them -- and cnt sits below fault in the
// include DAG (docs/static_analysis.md, rule R8).
#pragma once

#include "common/types.hpp"

namespace cnt {

/// Array protection scheme. Parity is per *partition* (one check bit per
/// encoding partition, so a detected flip also names the partition whose
/// direction bit may be wrong); SECDED is one Hamming+parity codeword per
/// line covering the data bits and, for CNT-Cache, the direction bits.
enum class ProtectionScheme : u8 {
  kNone,    ///< unprotected: every flip is silent data corruption
  kParity,  ///< detects odd flip counts per partition; cannot correct
  kSecded,  ///< corrects 1 flip, detects 2, miscorrects >= 3 per codeword
};

[[nodiscard]] constexpr const char* to_string(ProtectionScheme s) noexcept {
  switch (s) {
    case ProtectionScheme::kNone: return "none";
    case ProtectionScheme::kParity: return "parity";
    case ProtectionScheme::kSecded: return "secded";
  }
  return "?";
}

/// Per-line protection geometry for one policy's array.
struct ProtectionSpec {
  ProtectionScheme scheme = ProtectionScheme::kNone;
  usize covered_bits = 0;  ///< payload bits per line (data [+ direction bits])
  usize check_bits = 0;    ///< stored check bits per line

  [[nodiscard]] bool enabled() const noexcept {
    return scheme != ProtectionScheme::kNone;
  }
  friend bool operator==(const ProtectionSpec&,
                         const ProtectionSpec&) = default;
};

}  // namespace cnt
