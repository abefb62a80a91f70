#include "sim/metrics.hpp"

namespace cnt {

u64 TimingParams::cycles(const CacheStats& stats) const noexcept {
  return stats.accesses * hit_cycles + stats.misses() * miss_penalty;
}

double TimingParams::seconds(const CacheStats& stats) const noexcept {
  return static_cast<double>(cycles(stats)) / (clock_ghz * 1e9);
}

double edp(Energy energy, double seconds) noexcept {
  return energy.in_joules() * seconds;
}

Energy leakage_energy(double leakage_watts, double seconds) noexcept {
  return Energy::joules(leakage_watts * seconds);
}

Energy DramParams::traffic_energy(const MemoryTraffic& t) const noexcept {
  return static_cast<double>(t.line_reads) * per_line_read +
         static_cast<double>(t.line_writes) * per_line_write +
         static_cast<double>(t.word_writes) * per_word_write;
}

}  // namespace cnt
