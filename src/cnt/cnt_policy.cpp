#include "cnt/cnt_policy.hpp"

#include <bit>
#include <cassert>
#include <limits>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

void CntConfig::validate(usize line_bytes) const {
  constexpr double kMax = std::numeric_limits<double>::max();
  require_range("cnt.window", static_cast<double>(window), 1.0, kMax,
                "a window of at least 1 access");
  require_range("cnt.delta_t", delta_t, 0.0, kMax,
                "a finite hysteresis margin >= 0");
  (void)PartitionScheme(line_bytes, partitions);  // refuses a bad K
}

const char* to_string(FillDirectionPolicy p) noexcept {
  switch (p) {
    case FillDirectionPolicy::kAsIs: return "as-is";
    case FillDirectionPolicy::kMinWriteEnergy: return "min-write";
    case FillDirectionPolicy::kReadOptimized: return "read-optimized";
    case FillDirectionPolicy::kByMissType: return "by-miss-type";
  }
  return "?";
}

const char* to_string(HistoryScope s) noexcept {
  return s == HistoryScope::kPerLine ? "per-line" : "per-set";
}

namespace {

/// `cfg`, once it has passed validate(): the first member initializer
/// already derives the H&D width from the window.
const CntConfig& validated(const CntConfig& cfg, usize line_bytes) {
  cfg.validate(line_bytes);
  return cfg;
}

// Adds on top of any meta bits already in the base geometry (e.g.
// protection check bits sized by the runner).
ArrayGeometry with_meta(ArrayGeometry g, usize meta_bits) {
  g.meta_bits += meta_bits;
  return g;
}

usize history_width(const CntConfig& cfg) {
  return 2 * bits_to_hold(cfg.window - 1);
}

// Per-line H&D width for the array geometry. With per-set history the
// counters live in a side array shared by the ways; amortize its cells
// per line (ceiling) for the area/leakage accounting. The zero-line
// extension adds one flag bit per line.
usize meta_width(const CntConfig& cfg, usize ways) {
  const usize hist = history_width(cfg);
  const usize hist_per_line = cfg.history_scope == HistoryScope::kPerLine
                                  ? hist
                                  : (hist + ways - 1) / ways;
  return hist_per_line + cfg.partitions + (cfg.zero_line_opt ? 1 : 0);
}

// Per-stored-bit write weight matching the accounting granularity: a
// word-granular store drives ~8 B of an L-byte line.
double predictor_write_weight(const CntConfig& cfg, usize line_bytes) {
  if (cfg.write_granularity == WriteGranularity::kLine) return 1.0;
  constexpr double kNominalWordBytes = 8.0;
  return kNominalWordBytes / static_cast<double>(line_bytes);
}

}  // namespace

CntPolicy::CntPolicy(std::string name, const TechParams& tech,
                     ArrayGeometry geom, const CntConfig& cfg)
    : EnergyPolicyBase(
          std::move(name), tech,
          with_meta(geom,
                    meta_width(validated(cfg, geom.line_bytes), geom.ways)),
          cfg.write_granularity),
      cfg_(cfg),
      predictor_(tech.cell, PartitionScheme(geom.line_bytes, cfg.partitions),
                 cfg.window, cfg.delta_t,
                 predictor_write_weight(cfg, geom.line_bytes)),
      queue_(cfg.fifo_depth),
      ways_(geom.ways),
      states_(geom.sets * geom.ways),
      set_hist_(cfg.history_scope == HistoryScope::kPerSet ? geom.sets : 0),
      history_bits_(predictor_.history_bits()),
      part_energy_(tech.cell, predictor_.scheme().partition_bits()),
      word_energy_(tech.cell, 64),
      meta_energy_(tech.cell, history_bits_ + cfg.partitions),
      hist_energy_(tech.cell, history_bits_),
      scratch_a_(geom.line_bytes),
      scratch_b_(geom.line_bytes) {}

HistoryCounters& CntPolicy::history_of(u32 set, LineState& st) {
  return cfg_.history_scope == HistoryScope::kPerSet ? set_hist_[set]
                                                     : st.hist;
}

usize CntPolicy::meta_bits() const noexcept {
  return history_bits_ + cfg_.partitions;
}

u64 CntPolicy::directions(u32 set, u32 way) const {
  return states_[static_cast<usize>(set) * ways_ + way].directions;
}

const LineState& CntPolicy::line_state(u32 set, u32 way) const {
  return states_[static_cast<usize>(set) * ways_ + way];
}

// cnt-hot
void CntPolicy::on_access(const AccessEvent& ev) {
  charge_decode(ledger_);
  charge_tag_lookup(ledger_, ev);
  charge_ecc(ledger_, ev);

  switch (ev.kind) {
    case AccessKind::kReadHit:
      handle_hit(ev, /*is_write=*/false);
      break;
    case AccessKind::kWriteHit:
      handle_hit(ev, /*is_write=*/true);
      break;
    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill:
      handle_fill(ev);
      break;
    case AccessKind::kWriteAround:
      break;
  }

  if (ev.idle_slots != 0) drain(ev.idle_slots);
}

void CntPolicy::handle_hit(const AccessEvent& ev, bool is_write) {
  LineState& st = state(ev.set, ev.way);

  // The H&D field is read with the line: the encoder needs the direction
  // bits and the predictor needs the counters. Under a fault hook the
  // mask the encoder gets may differ from the policy's intent.
  charge_meta_read(history_of(ev.set, st), st.directions);
  const u64 dirs = effective_directions(ev.set, ev.way, st.directions);

  if (cfg_.zero_line_opt && handle_zero_line(ev, st, is_write)) return;

  if (is_write) {
    const auto [bit_lo, bit_hi] = written_bit_range(ev);
    if (cfg_.flip_aware_writes) {
      ledger_.charge(EnergyCategory::kDataWrite,
                     flip_aware_write_cost(ev.line_before, ev.line_after,
                                           dirs, bit_lo, bit_hi));
    } else {
      const usize ones =
          stored_ones_range(predictor_.scheme(), ev.line_after, ev.ones_after,
                            dirs, bit_lo, bit_hi);
      ledger_.charge(EnergyCategory::kDataWrite,
                     write_energy_counts(tech_.cell, bit_hi - bit_lo, ones));
    }
  } else {
    ledger_.charge(EnergyCategory::kDataRead, read_cost(ev, st, dirs));
  }
  charge_encoder_pass();
  charge_output(ledger_, transfer_bits(ev));

  run_predictor(ev, st, is_write);
}

void CntPolicy::handle_fill(const AccessEvent& ev) {
  LineState& st = state(ev.set, ev.way);

  // Victim writeback: a second array operation reads the stored (encoded)
  // victim out through the decoder side of the adaptive encoder. A
  // zero-flagged victim never touches the data array; its zeros are
  // synthesized at the interface.
  if (ev.evicted_valid && ev.evicted_dirty) {
    charge_decode(ledger_);
    charge_meta_read(history_of(ev.set, st), st.directions);
    const u64 dirs = effective_directions(ev.set, ev.way, st.directions);
    if (!(cfg_.zero_line_opt && st.zero_flag)) {
      Energy rd{};
      usize dirty_bits = 0;
      for_each_dirty_word(ev, [&](usize lo, usize hi) {
        rd += word_energy_.read(stored_ones_range(predictor_.scheme(),
                                                  ev.line_before,
                                                  ev.ones_before, dirs, lo,
                                                  hi));
        dirty_bits += hi - lo;
      });
      ledger_.charge(EnergyCategory::kDataRead, rd);
      ledger_.charge(EnergyCategory::kEncoderLogic,
                     static_cast<double>(dirty_bits) *
                         tech_.periph.encoder_per_bit);
      charge_output(ledger_, dirty_bits);
    } else {
      charge_output(ledger_, array_.geometry().line_bits());
    }
  }

  // Fresh line: new generation invalidates any queued re-encode. Per-line
  // history restarts with the line; per-set counters are shared and keep
  // running across fills.
  ++st.generation;
  st.pending = false;
  st.read_version = 0;
  st.hist = HistoryCounters{};
  st.write_filled = ev.kind == AccessKind::kWriteMissFill;
  st.zero_flag = cfg_.zero_line_opt && ev.ones_after_total == 0;

  if (st.zero_flag) {
    // Zero-line elision: the flag is authoritative; skip the array write.
    ++stats_.zero_fills;
    st.directions = 0;
    note_directions_written(ev.set, ev.way, st.directions);
    charge_meta_full_write(history_of(ev.set, st), st.directions);
    charge_tag_write(ledger_, ev);
    charge_output(ledger_, array_.geometry().line_bits());
    return;
  }

  usize raw_ones[64];
  partition_ones_of(ev, raw_ones);
  const Energy fill_cost = fill_write_cost(
      std::span<const usize>(raw_ones, predictor_.scheme().partitions()),
      ev.kind == AccessKind::kWriteMissFill, st.directions);
  note_directions_written(ev.set, ev.way, st.directions);

  charge_decode(ledger_);
  ledger_.charge(EnergyCategory::kDataWrite, fill_cost);
  charge_encoder_pass();
  charge_meta_full_write(history_of(ev.set, st), st.directions);
  charge_tag_write(ledger_, ev);
  charge_output(ledger_, array_.geometry().line_bits());
}

bool CntPolicy::handle_zero_line(const AccessEvent& ev, LineState& st,
                                 bool is_write) {
  if (!st.zero_flag) {
    // A store that zeroes the whole line arms the flag: from then on the
    // array contents are ignored, so nothing needs to be written.
    if (is_write && ev.ones_after_total == 0) {
      st.zero_flag = true;
      ++stats_.zero_fills;
      charge_meta_history_write(history_of(ev.set, st));  // flag + counters
      charge_output(ledger_, transfer_bits(ev));
      return true;
    }
    return false;
  }

  if (!is_write) {
    // Read of a flagged line: served entirely from the flag.
    ++stats_.zero_reads;
    charge_output(ledger_, transfer_bits(ev));
    return true;
  }

  if (ev.ones_after_total == 0) {
    // Still all-zero after the store: nothing to materialize.
    charge_output(ledger_, transfer_bits(ev));
    return true;
  }

  // The store un-zeroes the line: materialize the whole line in a freshly
  // chosen encoding (a full-line array write regardless of granularity).
  // The original fill's miss type still carries the usage prediction.
  st.zero_flag = false;
  st.read_version = 0;
  ++stats_.zero_materializations;
  usize raw_ones[64];
  partition_ones_of(ev, raw_ones);
  const Energy materialize_cost = fill_write_cost(
      std::span<const usize>(raw_ones, predictor_.scheme().partitions()),
      st.write_filled, st.directions);
  note_directions_written(ev.set, ev.way, st.directions);
  charge_decode(ledger_);
  ledger_.charge(EnergyCategory::kDataWrite, materialize_cost);
  charge_encoder_pass();
  charge_meta_full_write(history_of(ev.set, st), st.directions);
  charge_output(ledger_, transfer_bits(ev));
  return true;
}

void CntPolicy::run_predictor(const AccessEvent& ev, LineState& st,
                              bool is_write) {
  // Counter increment happens on every access (A_num, Wr_num).
  ledger_.charge(EnergyCategory::kPredictorLogic,
                 tech_.periph.predictor_update);

  HistoryCounters& hist = history_of(ev.set, st);
  // The partition counts are read only when this access closes a window.
  const auto& scheme = predictor_.scheme();
  usize raw_ones[64];
  std::span<const usize> counts;
  if (predictor_.window_closes(hist)) {
    partition_ones_of(ev, raw_ones);
    counts = std::span<const usize>(raw_ones, scheme.partitions());
  }
  const PredictorDecision d =
      predictor_.on_access(hist, st.directions, is_write, counts);

  // The updated (or reset) counters are written back to the H field.
  charge_meta_history_write(hist);

  if (!d.window_completed) return;

  ++stats_.windows_evaluated;
  // Window evaluation: popcount tree over the line + table lookup.
  ledger_.charge(EnergyCategory::kPredictorLogic,
                 static_cast<double>(array_.geometry().line_bits()) *
                     tech_.periph.predictor_eval_per_bit);

  if (!d.switch_requested) return;
  if (st.pending) {
    ++stats_.skipped_pending;
    return;
  }

  // Capture the re-encoded data cost now (the data FIFO holds the line as
  // of decision time) and enqueue.
  const u64 changed = st.directions ^ d.new_directions;
  Energy write_cost{};
  const usize pb = scheme.partition_bits();
  for (usize p = 0; p < scheme.partitions(); ++p) {
    if (!((changed >> p) & 1u)) continue;
    const bool new_dir = (d.new_directions >> p) & 1u;
    write_cost += part_energy_.write(new_dir ? pb - raw_ones[p] : raw_ones[p]);
  }

  ReencodeRequest req;
  req.set = ev.set;
  req.way = ev.way;
  req.new_directions = d.new_directions;
  req.generation = st.generation;
  req.write_cost = write_cost;
  req.partitions_flipped = d.partitions_flipped;

  if (queue_.push(req)) {
    st.pending = true;
    ++stats_.switch_decisions;
    stats_.partition_flips_requested += d.partitions_flipped;
    // Data FIFO push (line bytes) + index FIFO push (set/way/dirs ~ 8 B).
    ledger_.charge(EnergyCategory::kFifo,
                   static_cast<double>(array_.geometry().line_bytes + 8) *
                       tech_.periph.fifo_per_byte);
  }
}

void CntPolicy::partition_ones_of(const AccessEvent& ev,
                                  usize* ones_out) const {
  const auto& scheme = predictor_.scheme();
  for (usize p = 0; p < scheme.partitions(); ++p) {
    ones_out[p] =
        profile_partition_ones(scheme, ev.line_after, ev.ones_after, p);
  }
}

Energy CntPolicy::fill_write_cost(std::span<const usize> raw_ones,
                                  bool write_miss, u64& dirs_out) {
  FillDirectionPolicy policy = cfg_.fill_policy;
  if (policy == FillDirectionPolicy::kByMissType) {
    policy = write_miss ? FillDirectionPolicy::kMinWriteEnergy
                        : FillDirectionPolicy::kReadOptimized;
  }
  const usize pb = predictor_.scheme().partition_bits();
  const bool as_is = policy == FillDirectionPolicy::kAsIs;
  const bool min_write = policy == FillDirectionPolicy::kMinWriteEnergy;
  u64 dirs = 0;
  Energy total{};
  for (usize p = 0; p < raw_ones.size(); ++p) {
    const usize raw = raw_ones[p];
    usize stored = raw;
    if (!as_is) {
      const bool invert = min_write
                              ? raw * 2 > pb   // majority '1': cheaper inverted
                              : raw * 2 < pb;  // read-optimized: maximize '1's
      if (invert) {
        dirs |= (1ULL << p);
        ++stats_.fill_inversions;
        stored = pb - raw;
      }
    }
    total += part_energy_.write(stored);
  }
  dirs_out = dirs;
  return total;
}

// The H&D field is stored raw. That is already the energy-right choice for
// this field: direction bits on read-optimized lines are mostly '1'
// (stored-'1' reads are the cheap case), and the history counters are
// rewritten every access, where mostly-'0' values hit the cheap write
// case. A complemented variant was measured and loses on both counts.

usize CntPolicy::stored_dir_ones(u64 directions) const noexcept {
  return static_cast<usize>(std::popcount(directions));
}

void CntPolicy::charge_meta_read(const HistoryCounters& hist,
                                 u64 directions) {
  if (!cfg_.account_metadata) return;
  const usize ones = static_cast<usize>(std::popcount(hist.a_num)) +
                     static_cast<usize>(std::popcount(hist.wr_num)) +
                     stored_dir_ones(directions);
  ledger_.charge(EnergyCategory::kMetaRead, meta_energy_.read(ones));
}

void CntPolicy::charge_meta_history_write(const HistoryCounters& hist) {
  if (!cfg_.account_metadata) return;
  const usize ones = static_cast<usize>(std::popcount(hist.a_num)) +
                     static_cast<usize>(std::popcount(hist.wr_num));
  ledger_.charge(EnergyCategory::kMetaWrite, hist_energy_.write(ones));
}

void CntPolicy::charge_meta_full_write(const HistoryCounters& hist,
                                       u64 directions) {
  if (!cfg_.account_metadata) return;
  const usize ones = static_cast<usize>(std::popcount(hist.a_num)) +
                     static_cast<usize>(std::popcount(hist.wr_num)) +
                     stored_dir_ones(directions);
  ledger_.charge(EnergyCategory::kMetaWrite, meta_energy_.write(ones));
}

void CntPolicy::charge_encoder_pass() {
  ledger_.charge(EnergyCategory::kEncoderLogic,
                 static_cast<double>(array_.geometry().line_bits()) *
                     tech_.periph.encoder_per_bit);
}

Energy CntPolicy::stored_read_cost(const AccessEvent& ev, u64 dirs) const {
  const auto& scheme = predictor_.scheme();
  const usize pb = scheme.partition_bits();
  Energy total{};
  for (usize p = 0; p < scheme.partitions(); ++p) {
    const usize raw =
        profile_partition_ones(scheme, ev.line_after, ev.ones_after, p);
    total += part_energy_.read(((dirs >> p) & 1u) ? pb - raw : raw);
  }
  return total;
}

Energy CntPolicy::read_cost(const AccessEvent& ev, LineState& st,
                             u64 dirs) {
  // The memo only ever holds a cost priced under st.directions: every
  // change of the directions (fill, zero-line materialization, re-encode)
  // clears it. A decoder mask that a direction fault bent away from
  // st.directions is priced afresh and not kept.
  const bool intended = dirs == st.directions;
  if (intended && ev.line_version != 0 && ev.line_version == st.read_version) {
    return st.read_cost;
  }
  const Energy cost = stored_read_cost(ev, dirs);
  if (intended) {
    st.read_version = ev.line_version;
    st.read_cost = cost;
  }
  return cost;
}

Energy CntPolicy::flip_aware_write_cost(std::span<const u8> before,
                                        std::span<const u8> after, u64 dirs,
                                        usize bit_lo, usize bit_hi) const {
  encode_line(predictor_.scheme(), before, dirs, scratch_a_);
  encode_line(predictor_.scheme(), after, dirs, scratch_b_);
  // Word-granular ranges are byte-aligned (access offsets and sizes are).
  const usize byte_lo = bit_lo / 8;
  const usize byte_hi = (bit_hi + 7) / 8;
  return write_energy_flip_aware(
      tech_.cell,
      std::span<const u8>(scratch_a_).subspan(byte_lo, byte_hi - byte_lo),
      std::span<const u8>(scratch_b_).subspan(byte_lo, byte_hi - byte_lo));
}

u64 CntPolicy::effective_directions(u32 set, u32 way, u64 logical) {
  if (dir_hook_ == nullptr) return logical;
  const DirectionFaultHook::DirRead dr = dir_hook_->read_directions(set, way);
  charge_ecc_events(ledger_, dr.report);
  return dr.effective;
}

void CntPolicy::note_directions_written(u32 set, u32 way, u64 dirs) {
  if (dir_hook_ != nullptr) dir_hook_->write_directions(set, way, dirs);
}

void CntPolicy::drain(u32 slots) {
  for (u32 i = 0; i < slots && !queue_.empty(); ++i) {
    const auto req = queue_.pop();
    assert(req.has_value());
    // Index+data FIFO pop traffic.
    ledger_.charge(EnergyCategory::kFifo,
                   static_cast<double>(array_.geometry().line_bytes + 8) *
                       tech_.periph.fifo_per_byte);

    LineState& st = state(req->set, req->way);
    if (st.generation != req->generation) {
      queue_.note_stale();
      continue;
    }

    // Commit: one array write of the flipped partitions (E_encode) plus the
    // direction-bit update, charged wholly to the re-encode category.
    ledger_.charge(EnergyCategory::kReencode,
                   array_.decode_energy() + req->write_cost);
    if (cfg_.account_metadata) {
      ledger_.charge(EnergyCategory::kReencode,
                     write_energy_counts(tech_.cell, cfg_.partitions,
                                         stored_dir_ones(req->new_directions)));
    }
    st.directions = req->new_directions;
    st.read_version = 0;
    note_directions_written(req->set, req->way, st.directions);
    // A re-encode rewrites flipped partitions, so the protection check
    // bits are regenerated and rewritten with them.
    charge_ecc_write(ledger_);
    st.pending = false;
    ++stats_.reencodes_applied;
    stats_.partition_flips_applied += req->partitions_flipped;
  }
}

}  // namespace cnt
