// Multi-level experiment runner, one-policy-per-level view: drive a
// split-L1 + unified-L2 hierarchy with an interleaved instruction + data
// stream and either the baseline or CNT-Cache at each level. A thin
// adapter over simulate_hierarchy() (sim/runner.hpp), which can attach
// any policy set to every level in one replay.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cnt/cnt_policy.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/trace.hpp"

namespace cnt {

struct HierarchyRunConfig {
  HierarchyConfig hierarchy = HierarchyConfig::typical();
  TechParams tech = TechParams::cnfet();
  /// Enable the adaptive policy per level (false = plain baseline).
  bool cnt_at_l1i = true;
  bool cnt_at_l1d = true;
  bool cnt_at_l2 = false;
  CntConfig l1_cnt;  ///< CNT configuration for both L1s
  CntConfig l2_cnt;  ///< CNT configuration for the L2
  DramParams dram;
};

struct LevelResult {
  std::string level;
  bool adaptive = false;
  EnergyLedger ledger;
  CacheStats stats;
};

struct HierarchyRunResult {
  std::vector<LevelResult> levels;  ///< L1I, L1D, then L2 when enabled
  Energy dram_energy{};

  [[nodiscard]] Energy cache_total() const;
  [[nodiscard]] const LevelResult& level(std::string_view name) const;
};

/// The levels `cfg` describes, for simulate_hierarchy(): L1I, L1D and,
/// when enabled, L2, each carrying the baseline and CNT-Cache, so that
/// one replay holds every placement (`cnt_at_*` are not read).
[[nodiscard]] std::vector<LevelSetup> hierarchy_levels(
    const HierarchyRunConfig& cfg);

/// `run` read as the placement `cfg` describes: per level the CNT-Cache
/// ledger where `cnt_at_*` is set and the baseline's elsewhere, plus the
/// DRAM energy of its traffic. A level lacking the placed policy throws
/// std::out_of_range.
[[nodiscard]] HierarchyRunResult placement_view(const HierarchySimResult& run,
                                                const HierarchyRunConfig& cfg);

/// Pull an already-interleaved access stream (interleave() in
/// trace/trace.hpp) from any source, in-RAM or chunked on-disk, load
/// `init` segments, run with one policy per level, and collect per-level
/// ledgers. Streamed and in-RAM replay of the same accesses produce
/// byte-identical ledgers.
[[nodiscard]] HierarchyRunResult run_hierarchy(
    const HierarchyRunConfig& cfg, TraceSource& source,
    std::span<const MemorySegment> init);

}  // namespace cnt
