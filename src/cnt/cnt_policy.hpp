// CNT-Cache: the adaptive-encoding energy policy (the paper's contribution,
// Section III, Fig. 1).
//
// Attached as an AccessSink to the functional cache, it maintains the per-
// line H&D field (history counters + partition direction bits), runs the
// encoding-direction predictor at every window boundary, defers re-encoding
// through the update FIFOs, and charges every component of the design --
// including its own overheads (widened lines, encoder muxes, predictor
// logic, FIFO traffic, re-encode writes) -- to a categorized ledger.
#pragma once

#include <string>
#include <vector>

#include "cnt/direction_hook.hpp"
#include "cnt/encoding.hpp"
#include "cnt/policy_base.hpp"
#include "cnt/predictor.hpp"
#include "energy/sram_cell.hpp"
#include "cnt/update_queue.hpp"

namespace cnt {

/// Initial encoding direction chosen when a line is filled. The paper
/// leaves the fill policy unspecified. The library default, kByMissType,
/// uses the demand access that caused the fill as a one-shot pattern
/// prediction: a read miss means the line is being consumed (encode for
/// cheap reads); a write miss means a store stream is producing it (encode
/// for cheap writes). Streaming lines evict before the window predictor
/// can act (they see fewer than W accesses), so the fill choice carries
/// most of the benefit there; the window predictor then corrects hot lines
/// whose usage differs from the first touch. The other options exist for
/// the ablation bench (bench_fig_fill_policy).
enum class FillDirectionPolicy : u8 {
  kAsIs,            ///< D = 0: store the line unencoded
  kMinWriteEnergy,  ///< invert partitions that are majority-'1' (cheap fill)
  kReadOptimized,   ///< invert partitions that are majority-'0' (cheap reads)
  kByMissType,      ///< read miss -> kReadOptimized, write miss -> kMinWriteEnergy
};

[[nodiscard]] const char* to_string(FillDirectionPolicy p) noexcept;

/// Where the H (history) counters live. The paper widens every cache line
/// (kPerLine). The kPerSet extension keeps one counter pair per *set*,
/// shared by its ways: the H-field area shrinks by the associativity at
/// the cost of mixing the ways' access patterns (windows fire per set and
/// re-evaluate only the line being accessed at the boundary). The D bits
/// always stay per line. See bench_fig_history_scope for the trade-off.
enum class HistoryScope : u8 { kPerLine, kPerSet };

[[nodiscard]] const char* to_string(HistoryScope s) noexcept;

struct CntConfig {
  usize window = 15;     ///< W; the authors' default ("checkpoint as 15")
  usize partitions = 8;  ///< K direction bits per 64 B line
  usize fifo_depth = 8;  ///< deferred-update FIFO entries
  double delta_t = 0.0;  ///< switch hysteresis margin (0 = paper Algorithm 1)
  FillDirectionPolicy fill_policy = FillDirectionPolicy::kByMissType;
  /// kWord (default) charges a store for the accessed word's columns only
  /// (physical column-mux behaviour); kLine reproduces the paper's Eqs.
  /// (4)/(5) literally. The predictor's threshold table is built with a
  /// matching write weight so decisions stay consistent with accounting.
  WriteGranularity write_granularity = WriteGranularity::kWord;
  HistoryScope history_scope = HistoryScope::kPerLine;  ///< paper: per line
  bool account_metadata = true;   ///< charge H&D bit reads/writes
  bool flip_aware_writes = false; ///< ablation: charge only changed bits
  /// Extension (not in the paper): dynamic zero-line elision. One extra
  /// flag bit per line marks an all-zero line; flagged lines skip the data
  /// array entirely on reads and fills (the flag is authoritative), which
  /// composes naturally with adaptive encoding -- zero lines are exactly
  /// the ones whose raw reads are the CNFET worst case. A write that makes
  /// the line non-zero materializes it with a full-line write.
  bool zero_line_opt = false;

  /// Reject knobs the predictor cannot run with on `line_bytes`-byte
  /// lines: a zero window (W), a negative or non-finite hysteresis margin,
  /// and a K PartitionScheme refuses. Throws ValueError (Errc::kRange)
  /// naming the INI key (cnt.window, cnt.delta_t, cnt.partitions). The INI
  /// reader and the CntPolicy constructor both call it, so a bad K fails
  /// before any output.
  void validate(usize line_bytes) const;
};

struct CntPolicyStats {
  u64 windows_evaluated = 0;
  u64 switch_decisions = 0;          ///< window evals requesting >= 1 flip
  u64 partition_flips_requested = 0;
  u64 reencodes_applied = 0;
  u64 partition_flips_applied = 0;
  u64 skipped_pending = 0;  ///< window fired while a request was in flight
  u64 fill_inversions = 0;  ///< partitions stored inverted at fill time
  u64 zero_fills = 0;       ///< fills elided by the zero-line flag
  u64 zero_reads = 0;       ///< read hits served from the flag alone
  u64 zero_materializations = 0;  ///< writes that un-zeroed a flagged line
};

class CntPolicy final : public EnergyPolicyBase {
 public:
  /// `geom` describes the base array; this policy's H&D width is *added*
  /// to geom.meta_bits (which may already carry protection check bits).
  CntPolicy(std::string name, const TechParams& tech, ArrayGeometry geom,
            const CntConfig& cfg);

  void on_access(const AccessEvent& ev) override;

  /// Route direction-bit storage through a fault hook (not owned; may be
  /// nullptr; FaultCampaign in practice). Masks the policy writes pass
  /// through the hook's stuck cells; masks it reads back may differ --
  /// silent corruption makes the decoder use the flipped mask, inverting
  /// whole partitions' read-out. The policy keeps its logical intent in
  /// LineState.
  void attach_direction_hook(DirectionFaultHook* hook) noexcept {
    dir_hook_ = hook;
  }

  [[nodiscard]] const CntConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const CntPolicyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const UpdateQueueStats& queue_stats() const noexcept {
    return queue_.stats();
  }
  [[nodiscard]] const Predictor& predictor() const noexcept {
    return predictor_;
  }
  [[nodiscard]] const PartitionScheme& scheme() const noexcept {
    return predictor_.scheme();
  }

  /// H&D field width in bits per line (history counters + direction bits).
  [[nodiscard]] usize meta_bits() const noexcept;

  /// Introspection for tests: current direction mask of a line.
  [[nodiscard]] u64 directions(u32 set, u32 way) const;
  [[nodiscard]] const LineState& line_state(u32 set, u32 way) const;

 private:
  [[nodiscard]] LineState& state(u32 set, u32 way) {
    return states_[static_cast<usize>(set) * ways_ + way];
  }

  void handle_hit(const AccessEvent& ev, bool is_write);
  void handle_fill(const AccessEvent& ev);
  /// Zero-line extension hit path; returns true when the access was fully
  /// handled by the flag (no array involvement).
  bool handle_zero_line(const AccessEvent& ev, LineState& st, bool is_write);
  void run_predictor(const AccessEvent& ev, LineState& st, bool is_write);
  /// Raw '1' counts of every partition of ev.line_after, written to
  /// `ones_out` (one entry per partition), from the event's ones profile
  /// (see profile_partition_ones).
  void partition_ones_of(const AccessEvent& ev, usize* ones_out) const;
  /// One pass over the precomputed per-partition raw counts that both
  /// picks the fill direction mask (written to `dirs_out`) and prices the
  /// full-line array write under it. The raw count feeds the inversion
  /// decision and the stored-ones count, in partition order, so the energy
  /// sum is bit-identical to pricing the mask in a second pass.
  [[nodiscard]] Energy fill_write_cost(std::span<const usize> raw_ones,
                                       bool write_miss, u64& dirs_out);

  [[nodiscard]] usize stored_dir_ones(u64 directions) const noexcept;
  void charge_meta_read(const HistoryCounters& hist, u64 directions);
  void charge_meta_history_write(const HistoryCounters& hist);
  void charge_meta_full_write(const HistoryCounters& hist, u64 directions);
  void charge_encoder_pass();
  /// Read cost of the whole stored line_after under `dirs`.
  [[nodiscard]] Energy stored_read_cost(const AccessEvent& ev,
                                        u64 dirs) const;
  /// stored_read_cost, reused from st's memo when the line is unchanged
  /// since it was priced and `dirs` is the mask it was priced under.
  [[nodiscard]] Energy read_cost(const AccessEvent& ev, LineState& st,
                                 u64 dirs);
  [[nodiscard]] Energy flip_aware_write_cost(std::span<const u8> before,
                                             std::span<const u8> after,
                                             u64 dirs, usize bit_lo,
                                             usize bit_hi) const;

  void drain(u32 slots);

  /// History counters for this access's line under the configured scope.
  [[nodiscard]] HistoryCounters& history_of(u32 set, LineState& st);

  /// Direction mask the decoder sees for (set, way): the logical mask, or
  /// the campaign's (possibly corrupted, possibly corrected) read-out.
  /// Charges the correction events the metadata read incurs.
  [[nodiscard]] u64 effective_directions(u32 set, u32 way, u64 logical);
  /// Mirror a direction-mask write into the campaign's stored cells.
  void note_directions_written(u32 set, u32 way, u64 dirs);

  CntConfig cfg_;
  Predictor predictor_;
  UpdateQueue queue_;
  DirectionFaultHook* dir_hook_ = nullptr;
  usize ways_;
  std::vector<LineState> states_;
  std::vector<HistoryCounters> set_hist_;  ///< used when kPerSet
  CntPolicyStats stats_;
  usize history_bits_;
  // Fixed-width energy lookup tables (see EnergyByOnes): one partition's
  // bits and one 64-bit dirty word. Every partition/word pricing loop
  // indexes these instead of re-running the per-call formula.
  EnergyByOnes part_energy_;
  EnergyByOnes word_energy_;
  // Same idea for the metadata field: the full H&D record
  // (history_bits_ + partitions wide) and the history counters alone.
  EnergyByOnes meta_energy_;
  EnergyByOnes hist_energy_;

  // Scratch for flip-aware encoding comparisons (mutable: used by the
  // const cost helpers, invisible to callers).
  mutable std::vector<u8> scratch_a_;
  mutable std::vector<u8> scratch_b_;
};

}  // namespace cnt
