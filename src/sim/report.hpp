// Report helpers shared by the benchmark harness binaries: savings and
// energy-breakdown tables, and the results directory.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/runner.hpp"

namespace cnt {

/// Render the per-workload savings table (the headline experiment's rows):
/// one row per SimResult, columns for each policy's total energy and the
/// CNT-Cache saving vs. the CNFET baseline, plus an arithmetic-mean row.
[[nodiscard]] std::string savings_table(const std::vector<SimResult>& results);

/// Arithmetic mean of the CNT-vs-baseline saving across results (the
/// paper's "22.2% on average" metric).
[[nodiscard]] double mean_saving(const std::vector<SimResult>& results,
                                 std::string_view opt = kPolicyCnt,
                                 std::string_view base = kPolicyBaseline);

/// Render a per-category energy breakdown table for one result.
[[nodiscard]] std::string breakdown_table(const SimResult& result);

/// Standard directory for benchmark CSV output; created on demand.
/// Resolves to $CNT_RESULTS_DIR or "./results".
[[nodiscard]] std::string results_dir();

}  // namespace cnt
