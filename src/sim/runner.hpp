// Experiment runner: replay one workload through a functional cache -- or
// a split-L1 + L2 hierarchy -- with a set of energy policies attached to
// every cache, and collect per-policy ledgers.
//
// Because the policies are pure observers, a single functional run yields
// exactly comparable energy numbers for every policy (same hits, same
// evictions, same data) -- the experimental-control property the paper's
// comparison needs. Both entries wire each cache the same way and pull
// the stream through the same batched loop.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/cache_stats.hpp"
#include "cache/main_memory.hpp"
#include "cnt/cnt_policy.hpp"
#include "energy/energy_ledger.hpp"
#include "energy/tech_params.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_config.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/trace.hpp"

namespace cnt {

/// Canonical policy names used in every report.
inline constexpr std::string_view kPolicyCmos = "cmos";
inline constexpr std::string_view kPolicyBaseline = "cnfet_base";
inline constexpr std::string_view kPolicyStatic = "static_inv";
inline constexpr std::string_view kPolicyCnt = "cnt_cache";
inline constexpr std::string_view kPolicyIdeal = "ideal";

struct SimConfig {
  CacheConfig cache;            ///< the cache under study (default 32K/4w L1D)
  TechParams tech;              ///< CNFET parameters for all CNFET policies
  TechParams cmos_tech;         ///< CMOS parameters for the CMOS reference
  CntConfig cnt;                ///< CNT-Cache configuration
  /// Fault-injection campaign (default: disabled, zero cost, byte-identical
  /// results to a fault-free build). Baseline-family arrays protect the
  /// data line; the CNT array's codeword also covers its direction bits
  /// when fault.protect_directions is set.
  FaultConfig fault;
  bool with_cmos = true;
  bool with_static = true;
  bool with_ideal = true;

  SimConfig();
};

/// The policies a cache carries. They attach and report in the order of
/// the fields, which is the report order of every result.
struct PolicySet {
  bool cmos = false;        ///< kPolicyCmos
  bool baseline = false;    ///< kPolicyBaseline
  bool static_inv = false;  ///< kPolicyStatic
  bool cnt = false;         ///< kPolicyCnt
  bool ideal = false;       ///< kPolicyIdeal
};

struct PolicyResult {
  std::string name;
  EnergyLedger ledger;
  bool has_cnt_stats = false;
  CntPolicyStats cnt_stats;
  UpdateQueueStats queue_stats;

  [[nodiscard]] Energy total() const noexcept { return ledger.total(); }
};

struct SimResult {
  std::string workload;
  TraceStats trace_stats;
  CacheStats cache_stats;
  std::vector<PolicyResult> policies;
  bool has_fault = false;   ///< a fault campaign ran for this workload
  FaultStats fault_stats;   ///< campaign tallies (valid when has_fault)

  [[nodiscard]] const PolicyResult* find(std::string_view name) const;
  /// The named policy; throws std::out_of_range if absent.
  [[nodiscard]] const PolicyResult& policy(std::string_view name) const;
  /// Energy of a policy; throws std::out_of_range if absent.
  [[nodiscard]] Energy energy(std::string_view name) const {
    return policy(name).total();
  }
  /// Fractional dynamic-energy saving of `opt` relative to `base`
  /// (0.222 = 22.2% lower).
  [[nodiscard]] double saving(std::string_view opt,
                              std::string_view base = kPolicyBaseline) const;
};

/// Core entry: replay accesses pulled from any TraceSource -- an in-RAM
/// Trace or a chunked on-disk file -- through one cache configuration
/// with all selected policies attached. `init` segments are loaded into
/// memory before replay. The source is rewound first, and accesses are
/// pulled in batches, so a streamed multi-GB trace replays with O(chunk)
/// resident memory and produces a ledger byte-identical to the same
/// accesses replayed from RAM.
[[nodiscard]] SimResult simulate(TraceSource& source,
                                 std::span<const MemorySegment> init,
                                 const SimConfig& cfg);

/// Run one materialized workload (wraps its trace in a VectorTraceSource).
[[nodiscard]] SimResult simulate(const Workload& w, const SimConfig& cfg);

/// One cache of a hierarchy: its geometry (`cfg.cache`) and parameters,
/// and the policies it carries (`cfg.with_*` are not read).
struct LevelSetup {
  SimConfig cfg;
  PolicySet policies;
};

struct HierarchySimResult {
  std::vector<SimResult> levels;  ///< L1I, L1D, then L2 when present
  MemoryTraffic memory;           ///< what reached the backing store
};

/// Multi-level entry: replay an already-interleaved stream through a
/// split L1 (`levels` 0 and 1: L1I, L1D) over an optional unified L2
/// (`levels` 2), every level wired as simulate() wires its cache. Each
/// level's SimResult holds its cache stats and policy ledgers; no trace
/// stats are fed. Fault campaigns are single-cache only, so a level with
/// one enabled is refused (std::invalid_argument), as is a level count
/// other than two or three.
[[nodiscard]] HierarchySimResult simulate_hierarchy(
    TraceSource& source, std::span<const MemorySegment> init,
    std::span<const LevelSetup> levels);

/// Run the whole default suite. `scale` shrinks the workloads for quick
/// runs (1.0 = full size); `seed_offset` perturbs the generators for
/// statistical replication (0 = canonical instances).
[[nodiscard]] std::vector<SimResult> run_suite(const SimConfig& cfg,
                                               double scale = 1.0,
                                               u64 seed_offset = 0);

}  // namespace cnt
