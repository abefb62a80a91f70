// The named benchmark suite used by every evaluation experiment.
//
// `default_suite()` returns the ten D-Cache workloads of DESIGN.md's
// experiment index (the reconstruction of the paper's "set of benchmark
// programs"); individual workloads can also be built by name, with a size
// scale factor for quick runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cnt {

struct SuiteEntry {
  std::string name;
  /// Build at `scale` (1 = full size) with the generator's seed perturbed
  /// by `seed_offset` (0 = the canonical deterministic instance).
  std::function<Workload(double scale, u64 seed_offset)> build;
};

/// All ten data-side workloads, in canonical report order.
[[nodiscard]] const std::vector<SuiteEntry>& default_suite();

/// Build one suite workload by name at the given scale (clamped to at
/// least 0.01); `seed_offset` perturbs the generator seed for statistical
/// replication. Throws std::invalid_argument for unknown names and
/// scaled_count()'s ValueError for a bad scale.
[[nodiscard]] Workload build_workload(const std::string& name,
                                      double scale = 1.0,
                                      u64 seed_offset = 0);

/// `count * scale`, unrounded and at least 0: the size a generator
/// parameter takes at `scale`. Throws ValueError (Errc::kRange) naming
/// `scale` when it is not finite or the product is too large to be a
/// count (>= 2^63).
[[nodiscard]] double scaled_count(usize count, double scale);

/// Names in canonical order (for CLI help and report rows).
[[nodiscard]] std::vector<std::string> suite_names();

}  // namespace cnt
