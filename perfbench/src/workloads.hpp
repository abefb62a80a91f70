// The four benchmark workloads and the measurement loop they share.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrink every input so a run finishes in about a second (self-tests).
  bool tiny = false;
  /// Scratch directory for .trs files, journals and the span log.
  std::string work_dir;
};

struct RunReport {
  Metrics metrics;
  u64 attempted = 0;
  u64 failed = 0;
  /// Digest of the first timed pass or round; every later one must match.
  std::string digest;
  /// One line per failed check or failed operation.
  std::vector<std::string> problems;
  // Run record.
  usize workers = 1;
  u64 accesses_per_unit = 0;  ///< accesses in one pass / round
  u64 jobs_per_unit = 0;      ///< jobs in one pass / round
  u64 units = 0;              ///< timed passes / rounds
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generate the workload's inputs from the seed, measure it for
/// opts.seconds of host time and check its outputs. With opts.trace, also
/// run the traced phase, the ladder and the per-job split.
[[nodiscard]] RunReport run_workload(const Options& opts);

}  // namespace perfbench
