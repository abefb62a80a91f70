// Derived metrics beyond raw dynamic energy: execution-time estimation,
// energy-delay product (EDP), static/leakage energy, and DRAM traffic
// energy for system-level experiments.
//
// CNFET's pitch is "both higher clock speed and energy efficiency"
// (abstract); EDP is the metric that captures the combination. The timing
// model is deliberately first-order -- an in-order core where every cache
// access takes hit_cycles and each miss stalls for miss_penalty more --
// because the encoding logic is off the critical path ("negligible
// influence on the timing", Section III.A) and thus CNT-Cache does not
// change cycle counts, only joules.
#pragma once

#include "cache/cache_stats.hpp"
#include "cache/main_memory.hpp"
#include "common/units.hpp"

namespace cnt {

struct TimingParams {
  u32 hit_cycles = 2;      ///< L1 access latency
  u32 miss_penalty = 20;   ///< additional stall cycles per L1 miss
  double clock_ghz = 2.0;  ///< core/cache clock

  /// Cycles to replay the run described by `stats`.
  [[nodiscard]] u64 cycles(const CacheStats& stats) const noexcept;
  /// Wall-clock seconds for the run.
  [[nodiscard]] double seconds(const CacheStats& stats) const noexcept;
};

/// Energy-delay product in joule-seconds.
[[nodiscard]] double edp(Energy energy, double seconds) noexcept;

/// Leakage energy burned by an array over `seconds` at `leakage_watts`.
[[nodiscard]] Energy leakage_energy(double leakage_watts,
                                    double seconds) noexcept;

/// First-order DRAM access energy (values typical of LPDDR4-class parts:
/// tens of nJ per 64 B line transfer including I/O and activation share).
struct DramParams {
  Energy per_line_read = nJ(15.0);
  Energy per_line_write = nJ(18.0);
  Energy per_word_write = nJ(2.5);  ///< write-through / write-around words

  /// Total DRAM dynamic energy for the traffic a MainMemory absorbed.
  [[nodiscard]] Energy traffic_energy(const MemoryTraffic& t) const noexcept;
  [[nodiscard]] Energy traffic_energy(const MainMemory& mem) const noexcept {
    return traffic_energy(mem.traffic());
  }
};

}  // namespace cnt
