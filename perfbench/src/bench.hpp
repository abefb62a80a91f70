// Shared plumbing of the perfbench binary: host-time measurement, the
// metric table a run reports, in-memory trace spans, and the digests that
// gate output correctness.
//
// Only host time is ever measured here. The simulator has no clock of its
// own; its outputs (ledgers, hit counts, CNT counters) are compared for
// exact equality through the digest helpers, never timed.
#pragma once

#include <chrono>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "exec/result_sink.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/runner.hpp"

namespace perfbench {

using cnt::i64;
using cnt::u64;
using cnt::usize;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Highest percentile in {50, 75, 90, 95, 99, 99.9} that has at least ten
/// samples beyond it, for `n` samples; 0 when even the median has fewer.
[[nodiscard]] double tail_percentile(usize n);

/// ru_maxrss of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Ordered name -> (value, unit) table; main() prints it as JSON.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  entries() const noexcept {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// One recorded span: a named host-time interval at a layer boundary, the
/// span that caused it (-1 for a root) and the job it belongs to (-1 when
/// it is not job-scoped).
struct Span {
  std::string name;
  i64 start_ns = 0;
  i64 end_ns = 0;
  i64 parent = -1;
  i64 job = -1;
};

/// In-memory span log. Disabled logs record nothing (begin() returns -1),
/// so the untraced path pays one branch per boundary. Spans are written
/// out once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  i64 begin(std::string name, i64 parent = -1, i64 job = -1);
  void end(i64 id);
  /// Record an interval measured elsewhere.
  i64 add(std::string name, Clock::time_point start, Clock::time_point end,
            i64 parent = -1, i64 job = -1);
  /// Write every span as one JSON document; throws std::runtime_error on
  /// I/O failure.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] i64 since_origin(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- digests --------------------------------------------------------------

/// Canonical text of one single-cache result: its dump_json rendering plus
/// its JSONL row without timing. The workload label is normalised away so
/// a streamed and an in-RAM replay of the same accesses compare equal.
[[nodiscard]] std::string result_text(cnt::SimResult r);

/// Canonical text of a hierarchy result: per level its ledger (every
/// category's joules as exact hex floats, plus charge counts) and cache
/// statistics, then the DRAM energy.
[[nodiscard]] std::string hierarchy_text(const cnt::HierarchyRunResult& r);

/// Canonical text of an engine batch: every outcome's JSONL row rendered
/// with jsonl_timing=false, one per line, in submission order.
[[nodiscard]] std::string outcomes_text(
    const std::vector<cnt::exec::JobOutcome>& outcomes);

/// 16-hex-digit FNV-1a 64 of `text`.
[[nodiscard]] std::string digest_of(std::string_view text);

}  // namespace perfbench
