// The figure registry: every table and figure this repository reproduces,
// as one declarative entry each, run by one driver (bench_figures).
//
// An entry holds only what differs per figure: its name (the CSV stem
// and command-line name), experiment id and title from DESIGN.md's
// experiment index, default workload scale, output columns, the engine
// jobs it needs (as exec::SweepSpecs) and one report function that turns
// the finished jobs into rows. run_figure() does the rest once for all
// of them: banner, $CNT_BENCH_SCALE, one ExperimentEngine run
// (--jobs, --resume, SIGINT drain, <name>.jsonl), the printed table, the
// CSV and the footer.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/table.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "exec/sweep.hpp"
#include "sim/runner.hpp"

namespace cnt::bench {

/// How a column renders its value in the printed table. The CSV always
/// gets the raw value: std::to_string of numbers, Energy in joules (in
/// femtojoules for kFemto). kPlain prints text and counts as they are and
/// Energy with its own unit.
enum class Show : u8 { kPlain, kPct, kNum, kFemto };

/// One output column, declared once for the table and the CSV; a plain
/// column is just {"table header", "csv_header"}.
struct Column {
  std::string shown;  ///< printed-table header; empty: CSV-only column
  std::string csv;    ///< CSV header; empty: printed-only column
  Show show = Show::kPlain;
  int digits = 1;      ///< kPct / kNum precision
  std::string suffix;  ///< unit appended to the printed cell
  double factor = 1.0;  ///< kNum prints value * factor
};

/// Fraction printed as a percentage ("22.2%").
[[nodiscard]] Column pct(std::string shown, std::string csv, int digits = 1);
/// Real number printed with fixed precision, an optional unit and scale.
[[nodiscard]] Column num(std::string shown, std::string csv, int digits,
                         std::string suffix = {}, double factor = 1.0);

/// One cell: text, a count, a real number or an energy.
using Value = std::variant<std::string, u64, double, Energy>;

/// The rows one figure produces: each value is formatted once, by its
/// column, into the printed table and the CSV.
struct Report {
  explicit Report(std::vector<Column> cols);

  /// A data row: one value per column, printed and written to the CSV.
  void row(const std::vector<Value>& values) { add(values, true); }
  /// A printed-only summary row (means, spreads): one value per column,
  /// trailing columns may be left out.
  void summary(const std::vector<Value>& values) { add(values, false); }
  /// Text printed under the table.
  void note(const std::string& text) { notes += text; }

  std::vector<Column> columns;
  Table table;
  std::vector<std::string> csv_headers;
  std::vector<std::vector<std::string>> csv_rows;
  std::string notes;

 private:
  void add(const std::vector<Value>& values, bool to_csv);
};

/// What a figure reads from its invocation.
struct Context {
  double scale = 1.0;  ///< workload scale (unused by analytic figures)
  int argc = 0;
  const char* const* argv = nullptr;

  /// `flag N` / `flag=N` on the command line, then $CNT_<FLAG>, then
  /// `fallback` (--samples, --seed).
  [[nodiscard]] u64 option(const char* flag, u64 fallback) const;
};

/// The finished jobs of one sweep point -- one axis combination at one
/// seed offset -- in submission (suite) order.
struct Point {
  const exec::Job* first = nullptr;  ///< config, tag and seed offset
  std::vector<SimResult> results;

  [[nodiscard]] const SimConfig& config() const noexcept {
    return first->config;
  }
};

using Specs = std::vector<exec::SweepSpec>;
using SpecsFn = std::function<Specs(const Context&)>;
using ReportFn =
    std::function<void(const Context&, const std::vector<Point>&, Report&)>;

struct Figure {
  std::string name;   ///< CSV stem and command-line name
  std::string id;     ///< experiment id in DESIGN.md's index, e.g. "E2"
  std::string title;
  double default_scale = 0.0;  ///< 0: analytic, no workload replay
  std::vector<Column> columns;
  /// Engine jobs, concatenated in order. Unset for the plain figures,
  /// whose report function computes everything itself.
  SpecsFn specs;
  ReportFn report;
  /// False when the report reads results a journal row does not keep
  /// (ledger categories, some policy counters): --resume then reruns every
  /// job instead of replaying rows that would change the CSV.
  bool resumable = true;
};

/// Every figure, in DESIGN.md experiment-index order.
[[nodiscard]] const std::vector<Figure>& registry();

/// The registered figure called `name`, or nullptr.
[[nodiscard]] const Figure* find_figure(std::string_view name);

/// Workload scale from $CNT_BENCH_SCALE's text: a finite positive number
/// wins; null, unparsable, non-positive and non-finite text falls back.
[[nodiscard]] double scale_from(const char* text, double fallback);

struct Invocation {
  int argc = 0;  ///< --jobs, --resume, --samples, --seed
  const char* const* argv = nullptr;
  const char* scale_text = nullptr;  ///< $CNT_BENCH_SCALE
  std::string dir;                   ///< where <name>.csv / .jsonl land
};

/// Run one figure: banner, engine sweep, table, CSV, footer. Returns the
/// process exit status: 0, 1 on any error, 130 when interrupted.
[[nodiscard]] int run_figure(const Figure& fig, const Invocation& inv);

}  // namespace cnt::bench
