// Trace container and workload description.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/access.hpp"
#include "common/flat_hash.hpp"
#include "common/memory_segment.hpp"
#include "common/types.hpp"

namespace cnt {

/// Aggregate statistics over a trace, for workload characterization tables.
struct TraceStats {
  usize accesses = 0;
  usize reads = 0;
  usize writes = 0;
  usize ifetches = 0;
  usize unique_lines = 0;     ///< distinct 64 B-aligned lines touched
  double write_fraction = 0;  ///< writes / (reads + writes)
  double footprint_kib = 0;   ///< unique_lines * 64 / 1024
  double write_bit1_density = 0;  ///< mean '1'-bit fraction of write payloads
};

/// One-pass TraceStats builder. Both Trace::stats() and the streaming
/// replay path (stats_of(TraceSource&)) feed this same accumulator, so a
/// materialized trace and a chunked on-disk replay of the same accesses
/// report identical statistics by construction. Memory is O(unique lines
/// touched), never O(trace length).
class TraceStatsAccumulator {
 public:
  void feed(const MemAccess& a);
  /// Snapshot of the statistics for everything fed so far.
  [[nodiscard]] TraceStats finish() const;

 private:
  TraceStats s_;
  // Unique-line tracking, two-level: one hash probe per access lands on a
  // 4 KiB page's 64-line occupancy mask instead of an entry per line. The
  // table is 64x smaller than a per-line set, so the per-access probe
  // stays cache-resident even for server-scale footprints; the count is
  // maintained incrementally (a mask iteration would be order-dependent).
  U64Map<u64> page_line_masks_;
  // One-entry probe cache: consecutive accesses overwhelmingly land on the
  // same 4 KiB page, so feed() skips the hash probe while the page repeats.
  // The cached pointer stays valid across feeds because the table only
  // rehashes when a *new* page is inserted, which refreshes the cache.
  u64 last_page_ = ~u64{0};
  u64* last_mask_ = nullptr;
  usize unique_lines_ = 0;
  usize write_bits_ = 0;
  usize write_ones_ = 0;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  void push(const MemAccess& a) { accesses_.push_back(a); }
  void reserve(usize n) { accesses_.reserve(n); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] usize size() const noexcept { return accesses_.size(); }
  [[nodiscard]] bool empty() const noexcept { return accesses_.empty(); }
  [[nodiscard]] const MemAccess& operator[](usize i) const noexcept {
    return accesses_[i];
  }
  [[nodiscard]] auto begin() const noexcept { return accesses_.begin(); }
  [[nodiscard]] auto end() const noexcept { return accesses_.end(); }

  /// All accesses are `valid()` per MemAccess::valid().
  [[nodiscard]] bool well_formed() const noexcept;

  [[nodiscard]] TraceStats stats() const;

 private:
  std::string name_;
  std::vector<MemAccess> accesses_;
};

/// A complete benchmark program as seen by the simulator: its access trace
/// plus the initial contents of the memory it reads before writing.
struct Workload {
  std::string name;
  std::string description;
  Trace trace;
  std::vector<MemorySegment> init;

  /// Total real bytes held by the init image (sum of segment residents).
  [[nodiscard]] usize init_resident_bytes() const noexcept;
};

/// Interleave an instruction stream with a data stream, `code_per_data`
/// fetches before each data access (a coarse dynamic mix). The tail of
/// the longer trace is appended unchanged; with 0, all data comes first.
[[nodiscard]] Trace interleave(const Trace& code, const Trace& data,
                               usize code_per_data = 2);

/// Both programs as one: their traces interleaved as above and their init
/// images concatenated (code first).
[[nodiscard]] Workload interleave(const Workload& code, const Workload& data,
                                  usize code_per_data = 2);

}  // namespace cnt
