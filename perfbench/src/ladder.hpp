// The per-layer ladder: replay a workload's inputs, single-threaded,
// through cumulative stages assembled from the same public constructors
// simulate() and run_hierarchy() use, and time each stage. A layer's cost
// is the difference between consecutive stages.
//
//   source -> +stats feed -> +cache (no sinks) -> +cnfet_base -> +cnt_cache
//          -> +cmos -> +static_inv -> +ideal -> +fault campaign
//
// The stages whose pipeline matches a runner configuration are checked
// against that runner byte for byte (see LadderResult::checks).
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/memory_segment.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/runner.hpp"
#include "trace/stream/trace_source.hpp"

namespace perfbench {

enum Stage : usize {
  kSource,
  kStats,
  kCache,
  kBase,
  kCnt,
  kCmos,
  kStatic,
  kIdeal,
  kFault,
  kStageCount,
};

/// Layer names, one per stage: the cost a stage adds over the previous one.
inline constexpr std::array<const char*, kStageCount> kStageNames = {
    "source",  "stats",      "cache", "cnfet_base", "cnt_cache",
    "cmos",    "static_inv", "ideal", "fault"};

/// One replay input: a rewindable source plus its init image.
struct LadderInput {
  cnt::TraceSource* source = nullptr;
  std::span<const cnt::MemorySegment> init;
};

struct LadderConfig {
  /// Single-cache topology (when !hierarchy): the cache and CNT settings
  /// of every stage; `fault` is the campaign the kFault stage adds.
  cnt::SimConfig single;
  /// Two-level topology: policies attach at L1I, L1D and L2 alike.
  bool hierarchy = false;
  cnt::HierarchyRunConfig hier;
  cnt::FaultConfig fault;
};

struct StageCheck {
  std::string what;
  bool ok = false;
};

struct LadderResult {
  /// Fastest pass of each whole stage (cumulative), ns per access. As for
  /// the end-to-end figures, the fastest repetition is the one least
  /// disturbed by other load on the host.
  std::array<double, kStageCount> stage_ns{};
  /// stage[k] - stage[k-1] (layer[0] is the source stage itself), ns per
  /// access.
  std::array<double, kStageCount> layer_ns{};
  u64 accesses = 0;  ///< accesses per stage pass (all inputs)
  usize reps = 0;
  std::vector<StageCheck> checks;
  /// CNT counters of the kCnt stage (no fault campaign), summed over
  /// inputs and levels. Simulated counts: they repeat exactly.
  u64 windows_evaluated = 0;
  u64 reencodes_applied = 0;
  u64 fifo_drops = 0;
};

/// Run the ladder over `inputs` for at least `min_reps` and at most
/// `max_reps` repetitions, stopping after `budget_s` host seconds once the
/// minimum is met. The first repetition also runs the byte-for-byte
/// checks. Stage passes are recorded as spans under `parent`.
[[nodiscard]] LadderResult run_ladder(std::span<const LadderInput> inputs,
                                      const LadderConfig& cfg, usize min_reps,
                                      usize max_reps, double budget_s,
                                      SpanLog& spans, i64 parent);

/// Median host microseconds to construct the policy set (with its
/// EnergyByOnes tables) that one run of this configuration builds: the
/// single-cache policies up to stage `upto`, or the one policy per level
/// run_hierarchy() attaches.
[[nodiscard]] double policy_setup_us(const LadderConfig& cfg, Stage upto);

}  // namespace perfbench
