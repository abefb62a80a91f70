#include "figures.hpp"

#include <algorithm>
#include <exception>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cnt/threshold.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "device/cell_derivation.hpp"
#include "device/variation.hpp"
#include "energy/array_model.hpp"
#include "exec/engine.hpp"
#include "sim/analysis.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/gen/workloads.hpp"
#include "trace/workload_suite.hpp"

namespace cnt::bench {

// ---------------------------------------------------------------------------
// Columns and reports.

Column pct(std::string shown, std::string csv, int digits) {
  return {std::move(shown), std::move(csv), Show::kPct, digits};
}

Column num(std::string shown, std::string csv, int digits, std::string suffix,
           double factor) {
  return {std::move(shown), std::move(csv), Show::kNum, digits,
          std::move(suffix), factor};
}

namespace {

std::string shown_cell(const Column& col, const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* n = std::get_if<u64>(&v)) {
    return std::to_string(*n) + col.suffix;
  }
  if (const auto* e = std::get_if<Energy>(&v)) return e->to_string();
  const double d = std::get<double>(v);
  if (col.show == Show::kPct) return Table::pct(d, col.digits);
  return Table::num(d * col.factor, col.digits) + col.suffix;
}

std::string csv_cell(const Column& col, const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* n = std::get_if<u64>(&v)) return std::to_string(*n);
  if (const auto* e = std::get_if<Energy>(&v)) {
    return std::to_string(col.show == Show::kFemto ? e->in_femtojoules()
                                                   : e->in_joules());
  }
  return std::to_string(std::get<double>(v));
}

std::vector<std::string> headers(const std::vector<Column>& columns,
                                 std::string Column::*which) {
  std::vector<std::string> out;
  for (const Column& col : columns) {
    if (!(col.*which).empty()) out.push_back(col.*which);
  }
  return out;
}

}  // namespace

Report::Report(std::vector<Column> cols)
    : columns(std::move(cols)),
      table(headers(columns, &Column::shown)),
      csv_headers(headers(columns, &Column::csv)) {}

void Report::add(const std::vector<Value>& values, bool to_csv) {
  if (values.size() > columns.size() ||
      (to_csv && values.size() != columns.size())) {
    throw std::invalid_argument("Report: " + std::to_string(values.size()) +
                                " values for " +
                                std::to_string(columns.size()) + " columns");
  }
  std::vector<std::string> shown, csv;
  for (usize i = 0; i < values.size(); ++i) {
    const Column& col = columns[i];
    if (!col.shown.empty()) shown.push_back(shown_cell(col, values[i]));
    if (!col.csv.empty()) csv.push_back(csv_cell(col, values[i]));
  }
  table.add_row(std::move(shown));
  if (to_csv) csv_rows.push_back(std::move(csv));
}

// ---------------------------------------------------------------------------
// The driver.

double scale_from(const char* text, double fallback) {
  if (text == nullptr) return fallback;
  const auto v = cli::parse_double(text);
  return v && *v > 0.0 ? *v : fallback;
}

namespace {

void banner(const std::string& experiment, const std::string& what) {
  const std::string rule(62, '=');
  std::cout << rule << "\n" << experiment << ": " << what << "\n"
            << "knobs: CNT_BENCH_SCALE=<f> workload scale | --jobs N or "
               "CNT_JOBS=<n> | --resume\n"
            << rule << "\n\n";
}

/// Print the structured rendering of `e` and return exit status 1.
[[nodiscard]] int report_error(const std::exception& e) {
  std::cerr << "error: " << format_error(e) << "\n";
  return 1;
}

/// Split outcomes into sweep points: consecutive jobs sharing an axis tag
/// and a seed offset. Throws if any job failed.
std::vector<Point> points_of(const std::vector<exec::JobOutcome>& outcomes) {
  std::vector<Point> points;
  std::vector<const exec::JobOutcome*> group;
  for (usize i = 0; i < outcomes.size(); ++i) {
    group.push_back(&outcomes[i]);
    const exec::Job& job = outcomes[i].job;
    if (i + 1 == outcomes.size() || outcomes[i + 1].job.tag != job.tag ||
        outcomes[i + 1].job.seed_offset != job.seed_offset) {
      points.push_back(Point{&group.front()->job, exec::results_of(group)});
      group.clear();
    }
  }
  return points;
}

}  // namespace

int run_figure(const Figure& fig, const Invocation& inv) {
  banner(fig.id, fig.title);
  const bool replays = fig.default_scale > 0.0;
  const Context ctx{replays ? scale_from(inv.scale_text, fig.default_scale)
                            : 1.0,
                    inv.samples, inv.seed};
  const std::string stem = inv.dir + "/" + fig.name;
  try {
    std::vector<exec::JobOutcome> outcomes;
    std::ostringstream footer;
    if (replays) footer << " (scale " << ctx.scale;
    if (fig.specs) {
      std::vector<exec::Job> jobs;
      for (const exec::SweepSpec& spec : fig.specs(ctx)) {
        std::vector<exec::Job> more = spec.expand();
        jobs.insert(jobs.end(), std::make_move_iterator(more.begin()),
                    std::make_move_iterator(more.end()));
      }
      bool resume = inv.resume;
      if (resume && !fig.resumable) {
        std::cerr << fig.name << ": --resume ignored; its columns need "
                  << "results a journal row does not keep\n";
        resume = false;
      }
      const exec::ExperimentEngine engine(
          {.jobs = inv.jobs,
           .jsonl_path = stem + ".jsonl",
           .progress = true,
           .resume = resume,
           .handle_signals = true});
      outcomes = engine.run(std::move(jobs));
      footer << ", " << engine.worker_count() << " jobs";
    }
    Report rep(fig.columns);
    fig.report(ctx, points_of(outcomes), rep);

    CsvWriter csv(stem + ".csv", rep.csv_headers);
    for (const auto& r : rep.csv_rows) csv.add_row(r);
    csv.finish();

    std::cout << rep.table.render()
              << (rep.notes.empty() ? "" : "\n" + rep.notes + "\n")
              << "\ncsv: " << stem << ".csv" << footer.str()
              << (replays ? ")" : "") << "\n"
              << (fig.specs ? "jsonl: " + stem + ".jsonl\n" : "") << "\n";
  } catch (const exec::SweepInterrupted& e) {
    std::cerr << "\ninterrupted after " << e.completed() << "/" << e.total()
              << " jobs; journal flushed to " << e.journal_path()
              << "\nrerun with --resume to finish the remaining jobs\n";
    return 130;
  } catch (const std::exception& e) {
    return report_error(e);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Shared figure vocabulary.

namespace {

using Results = std::vector<SimResult>;
using Points = std::vector<Point>;
using Row = std::vector<Value>;

/// The default configuration with the CNFET baseline, CNT-Cache and the
/// chosen reference policies attached.
SimConfig policies(bool cmos, bool static_inv, bool ideal) {
  SimConfig cfg;
  cfg.with_cmos = cmos;
  cfg.with_static = static_inv;
  cfg.with_ideal = ideal;
  return cfg;
}

/// Only the two policies the saving compares.
SimConfig cnt_only() { return policies(false, false, false); }

/// Scale the deltas of the CNFET cell by `k`, keeping the mean per-bit
/// read and write energies fixed (so the *baseline* cost stays comparable
/// and only the exploitable asymmetry changes).
TechParams scaled_asymmetry(double k) {
  TechParams t = TechParams::cnfet();
  const Energy rd_mean = (t.cell.rd0 + t.cell.rd1) / 2.0;
  const Energy wr_mean = (t.cell.wr0 + t.cell.wr1) / 2.0;
  const Energy rd_half = (t.cell.rd0 - t.cell.rd1) / 2.0 * k;
  const Energy wr_half = (t.cell.wr1 - t.cell.wr0) / 2.0 * k;
  t.cell.rd0 = rd_mean + rd_half;
  t.cell.rd1 = rd_mean - rd_half;
  t.cell.wr1 = wr_mean + wr_half;
  t.cell.wr0 = wr_mean - wr_half;
  t.name = "CNFET-asym-" + std::to_string(k);
  return t;
}

const std::vector<double> kAsymmetry = {0.0, 0.25, 0.5, 0.75, 1.0, 1.2};

struct DevicePoint {
  u32 tubes;
  double diameter;
};
const std::vector<DevicePoint> kDevices = {
    {3, 1.5}, {6, 1.2}, {6, 1.5}, {6, 2.0}, {10, 1.5}};

struct CellPoint {
  const char* name;
  TechParams (*tech)();
};
const std::vector<CellPoint> kCells = {
    {"CNFET (asymmetric)", TechParams::cnfet},
    {"CMOS (symmetric)", TechParams::cmos}};

struct IdlePoint {
  u32 per_miss;
  u32 hit_period;
  const char* name;
};
const std::vector<IdlePoint> kIdle = {{0, 0, "starved (no idle slots)"},
                                      {2, 0, "miss-only, tight"},
                                      {8, 4, "default"},
                                      {8, 1, "idle-rich"},
                                      {32, 1, "unconstrained"}};

// Axis-value labels for the sweep tags.
std::string label(bool on) { return on ? "on" : "off"; }
std::string label(usize v) { return std::to_string(v); }
std::string label(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}
std::string label(const DevicePoint& pt) {
  return std::to_string(pt.tubes) + "x" + Table::num(pt.diameter, 1) + "nm";
}
std::string label(const CellPoint& pt) { return pt.name; }
std::string label(const IdlePoint& pt) {
  return std::to_string(pt.per_miss) + "/" + std::to_string(pt.hit_period);
}
template <typename E>
std::string label(E v) {
  return to_string(v);
}

/// Add an axis whose i-th point applies `set(cfg, values[i])`.
template <typename T, typename Set>
void axis(exec::SweepSpec& spec, std::string name, std::vector<T> values,
          Set set) {
  std::vector<std::string> labels;
  for (const T& v : values) labels.push_back(label(v));
  spec.axis(std::move(name), std::move(labels),
            [values, set](SimConfig& cfg, usize i) { set(cfg, values[i]); });
}

/// One job per suite workload at the figure's scale, from `base`, over
/// the axes `add_axes` declares.
SpecsFn suite_sweep(const SimConfig& base,
                    std::function<void(exec::SweepSpec&)> add_axes = {}) {
  return [base, add_axes](const Context& ctx) {
    exec::SweepSpec spec;
    spec.base(base).scale(ctx.scale).suite();
    if (add_axes) add_axes(spec);
    return Specs{spec};
  };
}

/// suite_sweep() over a single axis.
template <typename T, typename Set>
SpecsFn over(const SimConfig& base, std::string name, std::vector<T> values,
             Set set) {
  return suite_sweep(base, [=](exec::SweepSpec& spec) {
    axis(spec, name, values, set);
  });
}

/// Report with one row per sweep point; `row(point, index)`.
ReportFn each_point(std::function<Row(const Point&, usize)> row) {
  return [row](const Context&, const Points& points, Report& rep) {
    for (usize i = 0; i < points.size(); ++i) rep.row(row(points[i], i));
  };
}

const PolicyResult& cnt_of(const SimResult& r) { return *r.find(kPolicyCnt); }

u64 total(const Results& rs, u64 CntPolicyStats::*field) {
  u64 n = 0;
  for (const auto& r : rs) n += cnt_of(r).cnt_stats.*field;
  return n;
}

u64 total(const Results& rs, u64 UpdateQueueStats::*field) {
  u64 n = 0;
  for (const auto& r : rs) n += cnt_of(r).queue_stats.*field;
  return n;
}

u64 reencodes(const Results& rs) {
  return total(rs, &CntPolicyStats::reencodes_applied);
}

Energy mean_energy(const Results& rs, std::string_view policy) {
  Energy sum{};
  for (const auto& r : rs) sum += r.energy(policy);
  return sum / static_cast<double>(rs.size());
}

double mean_hit_rate(const Results& rs) {
  Accumulator hit;
  for (const auto& r : rs) hit.add(r.cache_stats.hit_rate());
  return hit.mean();
}

std::string spread(const Accumulator& acc) {
  return Table::pct(acc.mean()) + " +- " + Table::pct(acc.stddev());
}

double ratio(Energy a, Energy b) { return b.in_joules() > 0 ? a / b : 0.0; }

usize history_bits(usize window) { return 2 * bits_to_hold(window - 1); }

constexpr u64 kVariationSeed = 0xC0FFEE;
constexpr u64 kFaultSeed = 0xFA013;

std::vector<Figure> build_registry() {
  return {
      // T1 -- reconstruction of the paper's Table `tab:rw-analysis`:
      // per-bit CNFET SRAM read/write energies for '0' and '1', with the
      // CMOS reference and the derived quantities the paper's argument
      // rests on.
      {.name = "table1_rw_energy", .id = "T1 (tab:rw-analysis)",
       .title = "per-bit SRAM access energies, CNFET vs CMOS",
       .columns = {{"technology", "tech"}, {"E_rd0", "rd0_fj", Show::kFemto},
                   {"E_rd1", "rd1_fj", Show::kFemto},
                   {"E_wr0", "wr0_fj", Show::kFemto},
                   {"E_wr1", "wr1_fj", Show::kFemto},
                   num("wr1/wr0", "", 2, "x"), {"rd0-rd1", ""},
                   {"wr1-wr0", ""}},
       .report = [](auto&, auto&, Report& rep) {
         const TechParams cnfet = TechParams::cnfet();
         for (const TechParams& p : {cnfet, TechParams::cmos()}) {
           const BitEnergies& c = p.cell;
           rep.row({p.name, c.rd0, c.rd1, c.wr0, c.wr1, c.wr1 / c.wr0,
                    c.read_delta(), c.write_delta()});
         }
         const BitEnergies& c = cnfet.cell;
         rep.note("paper anchors:\n  * writing '1' is \"almost 10X\" "
                  "writing '0' (abstract): " +
                  Table::num(c.wr1 / c.wr0, 2) +
                  "x\n  * E_rd0-E_rd1 \"quite close\" to E_wr1-E_wr0: " +
                  c.read_delta().to_string() + " vs " +
                  c.write_delta().to_string() +
                  "\n  * hence Th_rd (Eq. 3) = " +
                  Table::num(ThresholdTable(c, 15, 512).th_rd(), 2) +
                  " for W = 15, i.e. roughly W/2");
       }},

      // E1 -- the headline experiment: D-Cache dynamic energy of
      // CNT-Cache vs the baseline CNFET cache across the benchmark suite.
      // The paper reports a 22.2% average reduction; this figure
      // regenerates the per-benchmark bars and the mean, on the paper's
      // setup (32 KiB 4-way L1D, W = 15, K = 8).
      {.name = "fig_dynamic_energy", .id = "E1 (headline)",
       .title = "D-Cache dynamic energy, CNT-Cache vs baseline CNFET cache",
       .default_scale = 1.0,
       .columns = {{"workload", "workload"}, pct("hit%", "hit_rate"),
                   pct("wr%", "write_fraction"), {"CMOS", "cmos_j"},
                   {"CNFET base", "cnfet_base_j"}, {"static", "static_j"},
                   {"CNT-Cache", "cnt_j"}, {"ideal", "ideal_j"},
                   pct("saving", "saving")},
       .specs = suite_sweep({}),
       .report = [](auto&, const Points& points, Report& rep) {
         const Results& rs = points.at(0).results;
         for (const auto& r : rs) {
           rep.row({r.workload, r.cache_stats.hit_rate(),
                    r.trace_stats.write_fraction, r.energy(kPolicyCmos),
                    r.energy(kPolicyBaseline), r.energy(kPolicyStatic),
                    r.energy(kPolicyCnt), r.energy(kPolicyIdeal),
                    r.saving(kPolicyCnt)});
         }
         const double mean = mean_saving(rs);
         rep.summary({"mean", "", "", "", "", "", "", "", mean});
         rep.note("mean CNT-Cache dynamic-energy saving: " +
                  Table::pct(mean) +
                  "\npaper reports: 22.2% on its benchmark set");
       }},

      // E2 -- prediction-window sensitivity: mean saving and H-field
      // overhead as W sweeps. The paper's default is W = 15 ("we set
      // checkpoint as 15 accesses"); this sweep shows why mid-size windows
      // win: tiny windows thrash the encoder and large windows react too
      // slowly while the counter width (2*ceil(log2 W) bits/line) keeps
      // growing.
      {.name = "fig_window_sweep", .id = "E2", .title = "window size W sweep",
       .default_scale = 0.35,
       .columns = {{"W", "window"}, {"history bits/line", "history_bits"},
                   pct("mean saving", "mean_saving"),
                   {"switches applied", "reencodes"},
                   {"FIFO drops", "fifo_drops"}},
       .specs = over(cnt_only(), "window",
                     std::vector<usize>{3, 5, 7, 11, 15, 21, 31, 47, 63},
                     [](SimConfig& c, usize w) { c.cnt.window = w; }),
       .report = each_point([](const Point& p, usize) -> Row {
         const usize w = p.config().cnt.window;
         return {w, history_bits(w), mean_saving(p.results),
                 reencodes(p.results),
                 total(p.results, &UpdateQueueStats::dropped_full)};
       })},

      // E3 -- encoding granularity: whole-line (K = 1) vs partitioned
      // encoding. Finer partitions capture locally dense/sparse structure
      // (Fig. 2's argument) at the cost of K direction bits per line.
      {.name = "fig_partition_sweep", .id = "E3",
       .title = "partition count K sweep (whole-line vs fine-grained)",
       .default_scale = 0.35,
       .columns = {{"K", "partitions"}, {"partition bits", ""},
                   {"D bits/line", ""}, pct("mean saving", "mean_saving"),
                   {"", "ideal_saving"},
                   pct("vs ideal (captured)", "captured")},
       .specs = over(policies(false, false, true), "partitions",
                     std::vector<usize>{1, 2, 4, 8, 16, 32},
                     [](SimConfig& c, usize k) { c.cnt.partitions = k; }),
       .report = each_point([](const Point& p, usize) -> Row {
         const usize k = p.config().cnt.partitions;
         const double mean = mean_saving(p.results);
         const double ideal = mean_saving(p.results, kPolicyIdeal);
         return {k, p.config().cache.line_bytes * 8 / k, k, mean, ideal,
                 ideal > 0 ? mean / ideal : 0.0};
       })},

      // E4 -- switch-hysteresis sweep: the authors' extended description
      // gates encoding switches on saving at least a deltaT fraction of
      // the window energy ("the new pattern becomes the stable
      // optimization pattern only when E_original - E_new > deltaT *
      // E_original"). This sweep regenerates the deltaT-vs-saving
      // relationship they set out to explore.
      {.name = "fig_hysteresis_sweep", .id = "E4",
       .title = "encoding-switch hysteresis (deltaT) sweep",
       .default_scale = 0.35,
       .columns = {pct("deltaT", "delta_t", 0),
                   pct("mean saving", "mean_saving"),
                   {"switch decisions", "decisions"},
                   {"re-encodes", "reencodes"}},
       .specs = over(cnt_only(), "delta_t",
                     std::vector{0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50},
                     [](SimConfig& c, double dt) { c.cnt.delta_t = dt; }),
       .report = each_point([](const Point& p, usize) -> Row {
         return {p.config().cnt.delta_t, mean_saving(p.results),
                 total(p.results, &CntPolicyStats::switch_decisions),
                 reencodes(p.results)};
       }),
       .resumable = false},

      // E5 -- predictor quality: per-benchmark comparison of no encoding
      // (baseline), static whole-line inversion, adaptive CNT-Cache, and the
      // unattainable per-access oracle. The interesting column is the fraction
      // of the oracle's saving that the adaptive predictor captures. Static
      // inversion helps only when data bias happens to match the access mix;
      // the adaptive predictor captures most of the oracle's headroom.
      {.name = "fig_policy_compare", .id = "E5",
       .title = "encoding-policy comparison (static / adaptive / oracle)",
       .default_scale = 0.5,
       .columns = {{"workload", "workload"}, pct("static", "static_saving"),
                   pct("CNT-Cache", "cnt_saving"), pct("ideal", "ideal_saving"),
                   pct("captured", "captured")},
       .specs = suite_sweep({}),
       .report = [](auto&, const Points& points, Report& rep) {
         const Results& rs = points.at(0).results;
         Accumulator captured;
         for (const auto& r : rs) {
           const double s_cnt = r.saving(kPolicyCnt);
           const double s_ideal = r.saving(kPolicyIdeal);
           const double c = s_ideal > 1e-9 ? s_cnt / s_ideal : 0.0;
           captured.add(c);
           rep.row({r.workload, r.saving(kPolicyStatic), s_cnt, s_ideal, c});
         }
         rep.summary({"mean", mean_saving(rs, kPolicyStatic), mean_saving(rs),
                      mean_saving(rs, kPolicyIdeal), captured.mean()});
       }},

      // E6 -- I-Cache vs D-Cache benefit. The abstract pitches the
      // *D-Cache* number; this experiment shows both sides: the read-only
      // instruction stream also profits (reads dominate and RISC words
      // are mid-density), and the data suite's spread around it.
      {.name = "fig_icache_dcache", .id = "E6",
       .title = "I-Cache vs D-Cache adaptive-encoding benefit",
       .default_scale = 0.5,
       .columns = {{"cache", "cache"}, {"workload", "workload"},
                   pct("hit%", ""), {"baseline", ""}, {"CNT-Cache", ""},
                   pct("saving", "saving")},
       .specs = [](const Context& ctx) {
         // I-side: the basic-block fetch stream on an L1I-configured
         // cache. D-side: the full suite on the default L1D.
         exec::SweepSpec icache, dcache;
         icache.scale(ctx.scale).workload("ifetch").axis(
             "cache", {"L1I"},
             [](SimConfig& c, usize) { c.cache.name = "L1I"; });
         dcache.scale(ctx.scale).suite().axis("cache", {"L1D"},
                                              [](SimConfig&, usize) {});
         return Specs{icache, dcache};
       },
       .report = [](auto&, const Points& points, Report& rep) {
         for (const Point& p : points) {
           for (const auto& r : p.results) {
             rep.row({p.config().cache.name, r.workload,
                      r.cache_stats.hit_rate(), r.energy(kPolicyBaseline),
                      r.energy(kPolicyCnt), r.saving(kPolicyCnt)});
           }
         }
         rep.summary({"L1D", "mean", "", "", "",
                      mean_saving(points.at(1).results)});
       }},

      // E7 -- energy breakdown: where CNT-Cache's joules go per benchmark
      // (data array vs tags/peripherals vs the design's own overheads: H&D
      // metadata, encoder muxes, predictor logic, re-encode writes, FIFO
      // traffic). Shows that the overhead the paper calls "negligible"
      // stays small.
      {.name = "fig_breakdown", .id = "E7",
       .title = "CNT-Cache energy breakdown per benchmark",
       .default_scale = 0.5,
       .columns = {{"workload", "workload"}, {"data rd", "data_read_j"},
                   {"data wr", "data_write_j"},
                   {"tag+decode+out", "peripheral_j"}, {"meta", "meta_j"},
                   {"enc+pred logic", "logic_j"},
                   {"reencode+fifo", "reencode_fifo_j"},
                   pct("overhead%", "overhead_frac")},
       .specs = suite_sweep(cnt_only()),
       .report = [](auto&, const Points& points, Report& rep) {
         using C = EnergyCategory;
         for (const auto& r : points.at(0).results) {
           const EnergyLedger& led = cnt_of(r).ledger;
           rep.row({r.workload, led.get(C::kDataRead),
                    led.get(C::kDataWrite),
                    led.get(C::kTagRead) + led.get(C::kTagWrite) +
                        led.get(C::kDecode) + led.get(C::kOutput),
                    led.get(C::kMetaRead) + led.get(C::kMetaWrite),
                    led.get(C::kEncoderLogic) +
                        led.get(C::kPredictorLogic),
                    led.get(C::kReencode) + led.get(C::kFifo),
                    led.overhead_total() / led.total()});
         }
       },
       .resumable = false},

      // E8 -- cache-geometry sensitivity: does the saving hold across
      // sizes and associativities? (Bigger caches -> higher hit rates ->
      // more read hits for the encoder to optimize; associativity changes
      // conflict-miss behaviour.)
      {.name = "fig_geometry_sweep", .id = "E8",
       .title = "cache size / associativity sweep", .default_scale = 0.25,
       .columns = {{"size", "size_kib", Show::kPlain, 1, " KiB"},
                   {"ways", "ways"}, pct("mean hit%", "mean_hit_rate"),
                   pct("mean saving", "mean_saving")},
       .specs = suite_sweep(cnt_only(),
                            [](exec::SweepSpec& s) {
                              axis(s, "size_kib",
                                   std::vector<usize>{8, 16, 32, 64},
                                   [](SimConfig& c, usize kib) {
                                     c.cache.size_bytes = kib * 1024;
                                   });
                              axis(s, "ways", std::vector<usize>{2, 4, 8},
                                   [](SimConfig& c, usize w) {
                                     c.cache.ways = w;
                                   });
                            }),
       .report = each_point([](const Point& p, usize) -> Row {
         return {p.config().cache.size_bytes / 1024, p.config().cache.ways,
                 mean_hit_rate(p.results), mean_saving(p.results)};
       })},

      // E9 -- energy-delay product: the abstract's full pitch is that
      // CNFET gives "both higher clock speed and energy efficiency". This
      // experiment combines the dynamic-energy results with a first-order
      // timing model: the CMOS cache runs at its technology clock, the
      // CNFET caches at theirs (the adaptive encoder is off the critical
      // path, Section III.A, so CNT-Cache keeps the CNFET clock).
      {.name = "fig_edp", .id = "E9",
       .title = "energy-delay product, CMOS vs CNFET vs CNT-Cache",
       .default_scale = 0.5,
       .columns = {{"workload", "workload"},
                   num("EDP cmos", "edp_cmos", 1, " aJs", 1e18),
                   num("EDP cnfet base", "edp_cnfet", 1, " aJs", 1e18),
                   num("EDP cnt", "edp_cnt", 1, " aJs", 1e18),
                   num("cnt vs cmos", "", 2, "x"),
                   num("cnt vs cnfet", "", 2, "x")},
       .specs = suite_sweep(policies(true, false, false)),
       .report = [](auto&, const Points& points, Report& rep) {
         const SimConfig& cfg = points.at(0).config();
         TimingParams cnfet_t, cmos_t;
         cnfet_t.clock_ghz = cfg.tech.clock_ghz;
         cmos_t.clock_ghz = cfg.cmos_tech.clock_ghz;
         GeoMean vs_cmos, vs_base;
         for (const auto& r : points.at(0).results) {
           const double sec = cnfet_t.seconds(r.cache_stats);
           const double e_cmos =
               edp(r.energy(kPolicyCmos), cmos_t.seconds(r.cache_stats));
           const double e_base = edp(r.energy(kPolicyBaseline), sec);
           const double e_cnt = edp(r.energy(kPolicyCnt), sec);
           vs_cmos.add(e_cmos / e_cnt);
           vs_base.add(e_base / e_cnt);
           rep.row({r.workload, e_cmos, e_base, e_cnt, e_cmos / e_cnt,
                    e_base / e_cnt});
         }
         rep.summary({"geo-mean", "", "", "", vs_cmos.value(),
                      vs_base.value()});
       }},

      // E10 -- system-level view: split L1 + unified L2 + DRAM, with
      // adaptive encoding enabled at no level, L1 only, or L1+L2. Shows
      // where the paper's D-Cache focus sits in the whole-hierarchy energy
      // picture. One simulate_hierarchy() replay with both policies at
      // every level serves all three placements. Plain figure: a
      // hierarchy run is not an engine job.
      {.name = "fig_hierarchy", .id = "E10",
       .title = "hierarchy energy with CNT-Cache at different levels",
       .default_scale = 0.5,
       .columns = {{"configuration", "config"}, {"L1I", "l1i_j"},
                   {"L1D", "l1d_j"}, {"L2", "l2_j"},
                   {"hierarchy total", "caches_j"}, pct("hierarchy saving", ""),
                   {"", "dram_j"}},
       .report = [](const Context& ctx, auto&, Report& rep) {
         const Workload code = build_workload("ifetch", ctx.scale);
         const Workload data = build_workload("zipf_kv", ctx.scale);
         const Workload mixed = interleave(code, data);
         HierarchyRunConfig cfg;
         // L2 lines see little reuse (miss traffic only), so speculative
         // read-optimized fills rarely amortize there; fill for the cheap
         // write.
         cfg.l2_cnt.fill_policy = FillDirectionPolicy::kMinWriteEnergy;
         VectorTraceSource source(mixed.trace);
         const HierarchySimResult run =
             simulate_hierarchy(source, mixed.init, hierarchy_levels(cfg));
         struct Placement {
           const char* name;
           bool l1, l2;
         };
         double base_caches = 0;
         Energy dram{};
         for (const Placement& at :
              {Placement{"baseline (no encoding)", false, false},
               Placement{"CNT-Cache at L1", true, false},
               Placement{"CNT-Cache at L1+L2", true, true}}) {
           cfg.cnt_at_l1i = cfg.cnt_at_l1d = at.l1;
           cfg.cnt_at_l2 = at.l2;
           const HierarchyRunResult res = placement_view(run, cfg);
           const double caches = res.cache_total().in_joules();
           if (base_caches == 0) base_caches = caches;
           dram = res.dram_energy;
           rep.row({at.name, res.level("L1I").ledger.total(),
                    res.level("L1D").ledger.total(),
                    res.level("L2").ledger.total(), res.cache_total(),
                    1.0 - caches / base_caches, res.dram_energy});
         }
         rep.note("DRAM context: the off-chip traffic costs " +
                  dram.to_string() +
                  " in every configuration\n(encoding is invisible "
                  "outside the arrays and changes no traffic). "
                  "On-chip,\nL1 absorbs most accesses, so CNT-Cache at "
                  "L1 captures most of the benefit;\nL2 sees only "
                  "low-reuse miss traffic and is roughly neutral.");
       }},

      // E11 -- total energy (dynamic + leakage) per workload run. The
      // paper's headline is dynamic power; this experiment adds the static
      // side: CNFET's lower per-cell leakage compounds the win over CMOS,
      // and CNT-Cache's H&D bits cost a proportional leakage overhead that
      // the dynamic saving has to beat (it does, comfortably).
      {.name = "fig_total_energy", .id = "E11",
       .title = "total energy: dynamic + leakage", .default_scale = 0.5,
       .columns = {{"workload", "workload"}, {"CMOS total", "cmos_j"},
                   {"CNFET base total", "cnfet_j"}, {"CNT total", "cnt_j"},
                   pct("CNT saving (total)", "saving_total")},
       .specs = suite_sweep(policies(true, false, false)),
       .report = [](auto&, const Points& points, Report& rep) {
         const SimConfig& cfg = points.at(0).config();
         // Array leakage per implementation (H&D widens CNT's lines).
         const ArrayGeometry base_geom = geometry_of(cfg.cache);
         ArrayGeometry cnt_geom = base_geom;
         cnt_geom.meta_bits =
             history_bits(cfg.cnt.window) + cfg.cnt.partitions;
         const double leak_cmos =
             ArrayModel(cfg.cmos_tech, base_geom).leakage_watts();
         const double leak_cnfet =
             ArrayModel(cfg.tech, base_geom).leakage_watts();
         const double leak_cnt =
             ArrayModel(cfg.tech, cnt_geom).leakage_watts();
         TimingParams cnfet_t, cmos_t;
         cnfet_t.clock_ghz = cfg.tech.clock_ghz;
         cmos_t.clock_ghz = cfg.cmos_tech.clock_ghz;
         Accumulator acc;
         for (const auto& r : points.at(0).results) {
           const double sec = cnfet_t.seconds(r.cache_stats);
           const Energy cmos =
               r.energy(kPolicyCmos) +
               leakage_energy(leak_cmos, cmos_t.seconds(r.cache_stats));
           const Energy base =
               r.energy(kPolicyBaseline) + leakage_energy(leak_cnfet, sec);
           const Energy cnt_e =
               r.energy(kPolicyCnt) + leakage_energy(leak_cnt, sec);
           const double saving = 1.0 - cnt_e / base;
           acc.add(saving);
           rep.row({r.workload, cmos, base, cnt_e, saving});
         }
         rep.summary({"mean", "", "", "", acc.mean()});
         rep.note("leakage power: CMOS " +
                  Energy::joules(leak_cmos).to_string() + "/s, CNFET " +
                  Energy::joules(leak_cnfet).to_string() +
                  "/s, CNT-Cache " + Energy::joules(leak_cnt).to_string() +
                  "/s (+H&D cells)");
       }},

      // M1 -- mechanism chart: adaptive-encoding saving as a function of the
      // data's bit-1 density and the access mix. This is the figure that
      // explains *why* every other number looks the way it does: profit peaks
      // at extreme densities (far from 0.5) and flips preference as writes take
      // over. Plain figure: its traces are generated density probes, not suite
      // workloads. Savings peak far from density 0.5 and survive moderate write
      // mixes; at density ~0.5 there is nothing to encode and the overheads
      // show.
      {.name = "fig_density_sweep", .id = "M1",
       .title = "saving vs data density x write mix", .default_scale = 1.0,
       .columns = {num("bit1 density", "density", 2),
                   pct("write mix", "write_fraction", 0),
                   pct("CNT-Cache", "cnt_saving"),
                   pct("static", "static_saving"),
                   pct("ideal", "ideal_saving")},
       .report = [](const Context& ctx, auto&, Report& rep) {
         const SimConfig cfg = policies(false, true, true);
         for (const double d : {0.02, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60,
                                0.70, 0.80, 0.95}) {
           for (const double wf : {0.05, 0.20, 0.50, 0.80}) {
             gen::DensityProbeParams p;
             p.bit1_density = d;
             p.write_fraction = wf;
             p.accesses = static_cast<usize>(30000 * ctx.scale);
             const SimResult res = simulate(gen::density_probe(p), cfg);
             rep.row({d, wf, res.saving(kPolicyCnt), res.saving(kPolicyStatic),
                      res.saving(kPolicyIdeal)});
           }
         }
       }},

      // M2 -- robustness to the reconstructed cell model: the paper's Table
      // `tab:rw-analysis` is lost, so our CNFET energies are
      // literature-derived. This sweep scales the cell's read/write asymmetry
      // (the wr1/wr0 and rd0/rd1 spreads) around the reconstruction and shows
      // the headline saving as a function of it -- the conclusion holds for any
      // meaningfully asymmetric cell and vanishes, as it must, for a symmetric
      // one. The factor x = 1.0 is the literature-derived reconstruction
      // (wr1/wr0 ~= 9.7); at x = 0 the cell is symmetric and adaptive encoding
      // can only lose its overhead.
      {.name = "fig_asymmetry_sweep", .id = "M2",
       .title = "sensitivity to the cell's read/write asymmetry",
       .default_scale = 0.25,
       .columns = {num("asymmetry x", "asymmetry", 2),
                   num("wr1/wr0", "wr_ratio", 2), num("rd0/rd1", "rd_ratio", 2),
                   pct("mean saving", "mean_saving")},
       .specs = over(cnt_only(), "asymmetry", kAsymmetry,
                     [](SimConfig& c, double k) {
                       c.tech = scaled_asymmetry(k);
                     }),
       .report = each_point([](const Point& p, usize i) -> Row {
         const BitEnergies& cell = p.config().tech.cell;
         return {kAsymmetry[i], ratio(cell.wr1, cell.wr0),
                 ratio(cell.rd0, cell.rd1), mean_saving(p.results)};
       })},

      // M3 -- device-to-system sweep: derive the cell energies from the CNFET
      // device model and sweep the device choices (tubes per device, tube
      // diameter). Shows the whole stack end to end: transistor parameters ->
      // cell asymmetry -> cache-level saving, and that the paper's conclusion
      // is a property of the cell topology, not of one parameter point. The
      // saving tracks the cell's asymmetry, which every realistic device point
      // exhibits; the derived defaults land on the calibrated Table-1
      // reconstruction.
      {.name = "fig_device_sweep", .id = "M3",
       .title = "CNFET device-parameter sweep (derived cell model)",
       .default_scale = 0.2,
       .columns = {{"tubes/device", "tubes"},
                   num("diameter", "diameter_nm", 1, " nm"),
                   num("wr1/wr0", "wr_ratio", 1, "x"),
                   num("rd0 (fJ)", "rd0_fj", 2),
                   num("clock", "clock_ghz", 2, " GHz"),
                   pct("mean saving", "mean_saving")},
       .specs = over(cnt_only(), "device", kDevices,
                     [](SimConfig& c, const DevicePoint& pt) {
                       CnfetDeviceParams dev;
                       dev.tubes_per_device = pt.tubes;
                       dev.diameter_nm = pt.diameter;
                       c.tech = derive_tech_params(dev);
                     }),
       .report = each_point([](const Point& p, usize i) -> Row {
         const TechParams& tech = p.config().tech;
         return {u64{kDevices[i].tubes}, kDevices[i].diameter,
                 tech.cell.wr1 / tech.cell.wr0,
                 tech.cell.rd0.in_femtojoules(), tech.clock_ghz,
                 mean_saving(p.results)};
       })},

      // M4 -- process-variation Monte Carlo: CNFET fabrication varies tube
      // count and diameter per device; this experiment reruns the headline
      // measurement over sampled cell corners and reports the saving with
      // error bars, the robustness check a hardware venue would ask for.
      // The corner set is drawn up front from one seeded Rng, so the grid
      // is identical no matter how many jobs execute it; `--samples N`
      // widens the Monte Carlo and `--seed S` re-rolls the corners
      // (defaults 12 and 0xC0FFEE).
      {.name = "fig_variation", .id = "M4",
       .title = "process-variation Monte Carlo on the headline saving",
       .default_scale = 0.15,
       .columns = {{"sample", "sample"}, num("wr1/wr0", "wr_ratio", 1, "x"),
                   num("rd0/rd1", "rd_ratio", 1, "x"),
                   pct("mean saving", "mean_saving")},
       .specs = [](const Context& ctx) {
         const u64 samples = ctx.samples;
         Rng rng(ctx.seed.value_or(kVariationSeed));
         std::vector<BitEnergies> cells;
         std::vector<usize> ids;
         for (u64 s = 0; s < samples; ++s) {
           cells.push_back(sample_bit_energies(CnfetDeviceParams{},
                                               VariationParams{}, rng));
           ids.push_back(s);
         }
         return over(cnt_only(), "sample", ids,
                     [cells](SimConfig& c, usize i) {
                       c.tech.cell = cells[i];
                     })(ctx);
       },
       .report = [](const Context& ctx, const Points& points, Report& rep) {
         Accumulator savings;
         for (usize s = 0; s < points.size(); ++s) {
           const BitEnergies& cell = points[s].config().tech.cell;
           const double mean = mean_saving(points[s].results);
           savings.add(mean);
           rep.row({s, cell.wr1 / cell.wr0, cell.rd0 / cell.rd1, mean});
         }
         rep.summary({"mean +- std", "", "", spread(savings)});
         rep.note("across " + std::to_string(points.size()) +
                  " sampled process corners (seed " +
                  std::to_string(ctx.seed.value_or(kVariationSeed)) +
                  ") the headline saving moves by a couple of\npoints "
                  "at most -- the mechanism depends on the asymmetry's "
                  "existence, not\nits exact magnitude.");
       }},

      // M5 -- statistical replication: the suite's generators are deterministic
      // per seed; rerunning the headline measurement over perturbed seeds shows
      // how much of the reported saving is mechanism and how much is the luck
      // of one synthetic instance. Seed 0 is the canonical instance used
      // everywhere else; the spread across re-seeded instances bounds the
      // synthetic suite's sampling noise.
      {.name = "fig_seeds", .id = "M5",
       .title = "headline saving across workload seeds", .default_scale = 0.2,
       .columns = {{"seed offset", "seed_offset"},
                   pct("mean saving", "mean_saving")},
       .specs = suite_sweep(cnt_only(),
                            [](exec::SweepSpec& s) {
                              s.seed_offsets({0, 1, 2, 3, 4, 5, 6, 7});
                            }),
       .report = [](auto&, const Points& points, Report& rep) {
         Accumulator acc;
         for (const Point& p : points) {
           const double mean = mean_saving(p.results);
           acc.add(mean);
           rep.row({p.first->seed_offset, mean});
         }
         rep.summary({"mean +- std", spread(acc)});
       }},

      // M6 -- residency analysis: accesses per line tenure vs the prediction
      // window. A tenure must reach W accesses before Algorithm 1 can fire even
      // once, so this figure explains the division of labour measured
      // elsewhere: the window predictor governs the hot-line traffic share, the
      // fill-time direction choice carries the streaming share. Plain figure:
      // analyze_residency() walks each built workload. Streaming workloads live
      // in short tenures (< W accesses) where only the fill-time choice acts;
      // the window predictor only governs the >=W share.
      {.name = "fig_residency", .id = "M6",
       .title = "line-tenure lengths vs the W=15 prediction window",
       .default_scale = 0.5,
       .columns = {{"workload", "workload"}, {"tenures", "residencies"},
                   num("mean acc/tenure", "mean_accesses", 1),
                   num("max", "max_accesses", 0),
                   pct(">=W tenures", "long_tenure_fraction"),
                   pct("traffic in >=W tenures", "long_traffic_fraction"),
                   pct("CNT saving", "cnt_saving")},
       .report = [](const Context& ctx, auto&, Report& rep) {
         const SimConfig cfg = cnt_only();
         for (const auto& entry : default_suite()) {
           const Workload w = entry.build(ctx.scale, 0);
           const ResidencyStats rs = analyze_residency(w, cfg.cache, 15);
           rep.row({w.name, rs.residencies, rs.per_residency.mean(),
                    rs.per_residency.max(), rs.long_tenure_fraction,
                    rs.traffic_in_long_tenures,
                    simulate(w, cfg).saving(kPolicyCnt)});
         }
       }},

      // M7 -- negative control: run the full adaptive machinery on a
      // value-symmetric CMOS cell. The paper's mechanism exists only because
      // the CNFET cell is asymmetric; on CMOS the predictor must (and does)
      // decide "never switch", leaving exactly the encoding hardware's overhead
      // as a small loss. A reproduction that cannot show the effect
      // disappearing when its cause is removed proves nothing. On the symmetric
      // cell the saving collapses to the encoding hardware's own overhead (a
      // small negative), and the predictor requests almost no switches -- the
      // effect disappears with its cause, as it must.
      {.name = "fig_cmos_control", .id = "M7",
       .title = "negative control: adaptive encoding on symmetric CMOS",
       .default_scale = 0.25,
       .columns = {{"cell", "cell"}, num("wr1/wr0", "", 2),
                   num("rd0/rd1", "", 2), pct("mean saving", "mean_saving"),
                   {"re-encodes", "reencodes"}},
       // The baseline AND the CNT policies both use the chosen cell.
       .specs = over(cnt_only(), "cell", kCells,
                     [](SimConfig& c, const CellPoint& pt) {
                       c.tech = pt.tech();
                     }),
       .report = each_point([](const Point& p, usize i) -> Row {
         const BitEnergies& cell = p.config().tech.cell;
         return {kCells[i].name, cell.wr1 / cell.wr0, cell.rd0 / cell.rd1,
                 mean_saving(p.results), reencodes(p.results)};
       })},

      // A5 -- per-set history sharing. The paper notes "it is usually expensive
      // to add bits to the cache line"; sharing one counter pair per set
      // divides the H-field cells by the associativity at the cost of mixing
      // the ways' access patterns. This figure quantifies the saving/area
      // trade-off of the extension against the paper's per-line design. Sharing
      // the counters per set halves the H&D width for a 4-way cache with only a
      // small accuracy cost: windows fire per set and re-evaluate the line
      // being touched at the boundary.
      {.name = "fig_history_scope", .id = "A5",
       .title = "per-line vs per-set history counters", .default_scale = 0.35,
       .columns = {{"history scope", "scope"},
                   {"H&D bits/line", "meta_bits_per_line"},
                   pct("area overhead", "area_overhead"),
                   pct("mean saving", "mean_saving")},
       .specs = over(cnt_only(), "history_scope",
                     std::vector{HistoryScope::kPerLine, HistoryScope::kPerSet},
                     [](SimConfig& c, HistoryScope v) {
                       c.cnt.history_scope = v;
                     }),
       .report = each_point([](const Point& p, usize) -> Row {
         const SimConfig& cfg = p.config();
         // Area overhead of the widened line for this scope.
         const usize hist = history_bits(cfg.cnt.window);
         const usize meta =
             cfg.cnt.partitions +
             (cfg.cnt.history_scope == HistoryScope::kPerLine
                  ? hist
                  : (hist + cfg.cache.ways - 1) / cfg.cache.ways);
         const ArrayGeometry base = geometry_of(cfg.cache);
         ArrayGeometry widened = base;
         widened.meta_bits = meta;
         return {to_string(cfg.cnt.history_scope), meta,
                 ArrayModel(cfg.tech, widened).area_um2() /
                         ArrayModel(cfg.tech, base).area_um2() -
                     1.0,
                 mean_saving(p.results)};
       })},

      // A6 -- zero-line elision on top of adaptive encoding. Real programs
      // keep plenty of all-zero lines resident (zero-initialized outputs,
      // sparse tables, padded records); one flag bit per line lets the
      // cache skip the data array for them entirely, and the lines it
      // helps most (all-zero, read-before-materialize) are exactly the
      // CNFET worst-case reads adaptive encoding otherwise has to fix.
      {.name = "fig_zero_line", .id = "A6",
       .title = "zero-line elision (+1 flag bit per line)",
       .default_scale = 0.35,
       .columns = {{"configuration", ""}, {"", "config"},
                   pct("mean saving", "mean_saving"),
                   {"zero fills", "zero_fills"}, {"zero reads", "zero_reads"},
                   {"materializations", "materializations"}},
       .specs = over(cnt_only(), "zero_line", std::vector{false, true},
                     [](SimConfig& c, bool on) { c.cnt.zero_line_opt = on; }),
       .report = each_point([](const Point& p, usize) -> Row {
         const bool on = p.config().cnt.zero_line_opt;
         const Results& rs = p.results;
         return {on ? "adaptive + zero-line flag" : "adaptive only",
                 on ? "zero_line" : "baseline", mean_saving(rs),
                 total(rs, &CntPolicyStats::zero_fills),
                 total(rs, &CntPolicyStats::zero_reads),
                 total(rs, &CntPolicyStats::zero_materializations)};
       }),
       .resumable = false},

      // A7 -- MRU way prediction on the tag side. The tag array is the biggest
      // energy consumer adaptive *data* encoding cannot touch; way prediction
      // shrinks it for baseline and CNT-Cache alike, which raises the relative
      // weight of the data array and with it the encoding saving. Way
      // prediction cuts both columns' absolute energy and raises the encoding
      // saving's share of what remains.
      {.name = "fig_way_prediction", .id = "A7",
       .title = "MRU way prediction (tag-side energy)", .default_scale = 0.35,
       .columns = {{"tag access", ""}, {"", "way_prediction"},
                   {"mean baseline", "base_j"}, {"mean CNT", "cnt_j"},
                   pct("mean saving", "mean_saving")},
       .specs = over(cnt_only(), "way_prediction", std::vector{false, true},
                     [](SimConfig& c, bool on) {
                       c.cache.way_prediction = on;
                     }),
       .report = each_point([](const Point& p, usize) -> Row {
         const bool on = p.config().cache.way_prediction;
         return {on ? "MRU way-predicted" : "all ways probed",
                 on ? "1" : "0", mean_energy(p.results, kPolicyBaseline),
                 mean_energy(p.results, kPolicyCnt),
                 mean_saving(p.results)};
       })},

      // A8 -- sectored writebacks: per-word dirty bits narrow the victim
      // read on dirty evictions to the words that actually changed.
      // Orthogonal to encoding, but it shifts where writeback energy goes
      // and so belongs in the substrate-sensitivity picture.
      {.name = "fig_sector_writeback", .id = "A8",
       .title = "sectored writebacks (dirty-word masks)", .default_scale = 0.35,
       .columns = {{"writeback", ""}, {"", "sectored"},
                   {"mean baseline", "base_j"}, {"mean CNT", "cnt_j"},
                   pct("mean saving", "mean_saving")},
       .specs = over(cnt_only(), "sector_writeback", std::vector{false, true},
                     [](SimConfig& c, bool on) {
                       c.cache.sector_writeback = on;
                     }),
       .report = each_point([](const Point& p, usize) -> Row {
         const bool on = p.config().cache.sector_writeback;
         return {on ? "sectored (dirty words)" : "full line", on ? "1" : "0",
                 mean_energy(p.results, kPolicyBaseline),
                 mean_energy(p.results, kPolicyCnt), mean_saving(p.results)};
       })},

      // A9 -- idle-slot availability: the deferred-update FIFOs only drain in
      // idle array slots (paper Section III.A), so this sweep starves and
      // floods the drain opportunities to see when re-encodings stop landing
      // and what that costs. With no idle slots at all, every switch decision
      // eventually hits a full FIFO and is dropped. The design degrades
      // gracefully: with zero idle slots the FIFO fills and decisions are
      // dropped, costing only the window-predictor share of the saving (the
      // fill-time encoding needs no idle slots at all).
      {.name = "fig_idle_sweep", .id = "A9",
       .title = "idle-slot availability vs deferred-update behaviour",
       .default_scale = 0.35,
       .columns = {{"idle model", ""}, {"", "idle_per_miss"},
                   {"", "hit_idle_period"}, pct("mean saving", "mean_saving"),
                   {"re-encodes", "reencodes"}, {"FIFO drops", "drops"},
                   {"stale drops", "stale"}},
       .specs = over(cnt_only(), "idle", kIdle,
                     [](SimConfig& c, const IdlePoint& pt) {
                       c.cache.idle.idle_per_miss = pt.per_miss;
                       c.cache.idle.hit_idle_period = pt.hit_period;
                     }),
       .report = each_point([](const Point& p, usize i) -> Row {
         const Results& rs = p.results;
         return {kIdle[i].name, u64{kIdle[i].per_miss},
                 u64{kIdle[i].hit_period}, mean_saving(rs), reencodes(rs),
                 total(rs, &UpdateQueueStats::dropped_full),
                 total(rs, &UpdateQueueStats::drained_stale)};
       }),
       .resumable = false},

      // A10 -- deferred-update FIFO depth: how many in-flight re-encode
      // requests the hardware needs. Together with fig_idle_sweep this
      // completes the deferred-update design space: depth governs how many
      // decisions survive until an idle slot arrives, idle availability governs
      // how fast they drain. A shallow FIFO suffices: decisions arrive at
      // window granularity and drain on the next miss, so occupancy rarely
      // exceeds a couple of entries.
      {.name = "fig_fifo_depth", .id = "A10",
       .title = "deferred-update FIFO depth sweep", .default_scale = 0.35,
       .columns = {{"FIFO depth", "depth"}, {"bytes", ""},
                   pct("mean saving", "mean_saving"),
                   {"re-encodes", "reencodes"}, {"drops", "drops"},
                   {"max occupancy", "max_occupancy"}},
       .specs = over(cnt_only(), "fifo_depth",
                     std::vector<usize>{1, 2, 4, 8, 16, 32},
                     [](SimConfig& c, usize d) { c.cnt.fifo_depth = d; }),
       .report = each_point([](const Point& p, usize) -> Row {
         const usize depth = p.config().cnt.fifo_depth;
         u64 occupancy = 0;
         for (const auto& r : p.results) {
           occupancy =
               std::max(occupancy, cnt_of(r).queue_stats.max_occupancy);
         }
         // Data FIFO holds a line per entry + ~8 B of index.
         return {depth, depth * (p.config().cache.line_bytes + 8),
                 mean_saving(p.results), reencodes(p.results),
                 total(p.results, &UpdateQueueStats::dropped_full),
                 occupancy};
       }),
       .resumable = false},

      // R1 -- fault-injection grid: defect density x protection scheme over the
      // workload suite. Each cell runs the full campaign (stuck-at cells placed
      // from the density, plus a fixed transient read-disturb rate) under one
      // of the three protection schemes and reports how many upsets were
      // corrected, detected, or escaped silently (SDC), along with the residual
      // CNT saving after the ECC check/correct energy is charged. The campaign
      // seed (`--seed S`, default 0xFA013) is fixed per cell, so two runs of
      // the same grid -- serial or parallel, fresh or --resume'd -- produce
      // identical counts. SECDED turns every would-be silent corruption in this
      // grid into a correction or a detected refetch; parity detects the
      // odd-weight upsets and the ECC energy tax on the saving stays small.
      {.name = "fig_fault_sweep", .id = "R1",
       .title = "fault-injection sweep: defect density x protection",
       .default_scale = 0.15,
       .columns = {num("stuck/Mbit", "stuck_per_mbit", 0),
                   {"protection", "protection"}, {"stuck cells", "stuck_cells"},
                   {"flips", "flips"}, {"corrected", "corrected_bits"},
                   {"detected", "detected_events"}, {"SDC bits", "sdc_bits"},
                   {"dir SDC", "dir_sdc_bits"}, pct("saving", "mean_saving")},
       .specs = [](const Context& ctx) {
         SimConfig base = cnt_only();
         base.fault.transient_per_read = 1e-5;
         base.fault.seed = ctx.seed.value_or(kFaultSeed);
         return suite_sweep(base, [](exec::SweepSpec& s) {
           axis(s, "density", std::vector{10.0, 100.0, 1000.0},
                [](SimConfig& c, double d) { c.fault.stuck_per_mbit = d; });
           axis(s, "protection",
                std::vector{ProtectionScheme::kNone,
                            ProtectionScheme::kParity,
                            ProtectionScheme::kSecded},
                [](SimConfig& c, ProtectionScheme v) {
                  c.fault.protection = v;
                });
         })(ctx);
       },
       .report = [](const Context& ctx, const Points& points, Report& rep) {
         for (const Point& p : points) {
           // Data-array and direction-bit upsets count together, except
           // for the silent corruptions, which the figure splits.
           u64 stuck = 0, flips = 0, corrected = 0, detected = 0, sdc = 0,
               dir_sdc = 0;
           for (const auto& r : p.results) {
             const FaultStats& f = r.fault_stats;
             stuck += f.stuck_data_cells + f.stuck_dir_cells;
             flips += f.transient_data_flips + f.transient_dir_flips;
             corrected += f.corrected_bits + f.dir_corrected_bits;
             detected += f.detected_events + f.dir_detected_events;
             sdc += f.silent_bits;
             dir_sdc += f.dir_silent_bits;
           }
           rep.row({p.config().fault.stuck_per_mbit,
                    to_string(p.config().fault.protection), stuck, flips,
                    corrected, detected, sdc, dir_sdc, mean_saving(p.results)});
         }
         rep.note("campaign seed " +
                  std::to_string(ctx.seed.value_or(kFaultSeed)));
       }},

      // S1 -- encoding win across the server-traffic scenario family
      // (docs/trace_streaming.md): the same Zipfian KV core under steady,
      // diurnal, write-bursty, scan-heavy and gather-heavy traffic. The
      // interesting spread is how the adaptive predictor's win moves with the
      // read/write mix and the access-pattern regularity. Only steady traffic
      // lets the predictor capture the oracle's headroom; hot-set drift, write
      // bursts and especially read-once scan/gather fills (low hit rate, no
      // reuse to learn from) push the committed encodings the wrong way -- the
      // oracle column shows the headroom is still there.
      {.name = "fig_traffic", .id = "S1",
       .title = "server-traffic scenarios (encoding win vs. traffic shape)",
       .default_scale = 0.25,
       .columns = {{"scenario", "scenario"}, {"accesses", "accesses"},
                   pct("write frac", "write_fraction"),
                   pct("hit rate", "hit_rate"), pct("static", "static_saving"),
                   pct("CNT-Cache", "cnt_saving"),
                   pct("ideal", "ideal_saving")},
       .specs = [](const Context& ctx) {
         std::vector<std::string> scenarios = {"server_traffic"};
         for (const auto& sc : gen::traffic_scenarios()) {
           scenarios.push_back(sc.name);
         }
         exec::SweepSpec spec;
         spec.base(policies(false, true, true))
             .scale(ctx.scale)
             .workloads(scenarios);
         return Specs{spec};
       },
       .report = [](auto&, const Points& points, Report& rep) {
         const Results& rs = points.at(0).results;
         for (const auto& r : rs) {
           rep.row({r.workload, r.trace_stats.accesses,
                    r.trace_stats.write_fraction,
                    r.cache_stats.hit_rate(), r.saving(kPolicyStatic),
                    r.saving(kPolicyCnt), r.saving(kPolicyIdeal)});
         }
         rep.summary({"mean", "", "", "", mean_saving(rs, kPolicyStatic),
                      mean_saving(rs), mean_saving(rs, kPolicyIdeal)});
       }},

      // T2 -- benchmark-suite characterization: the table a paper's
      // evaluation section opens with. Access counts, read/write mix,
      // footprint, hit rate on the default L1D, and the bit-1 density of
      // written data (the property adaptive encoding exploits).
      {.name = "table_workloads", .id = "T2",
       .title = "benchmark-suite characterization", .default_scale = 1.0,
       .columns = {{"workload", "workload"}, {"accesses", "accesses"},
                   pct("wr%", "write_fraction"),
                   num("footprint", "footprint_kib", 0, " KiB"),
                   pct("hit% (32K/4w)", "hit_rate"),
                   pct("write bit1", "write_bit1_density")},
       .specs = suite_sweep(cnt_only()),
       .report = [](auto&, const Points& points, Report& rep) {
         for (const auto& r : points.at(0).results) {
           const TraceStats& ts = r.trace_stats;
           rep.row({r.workload, ts.accesses, ts.write_fraction,
                    ts.footprint_kib, r.cache_stats.hit_rate(),
                    ts.write_bit1_density});
         }
       },
       .resumable = false},

      // T3 -- implementation overhead of CNT-Cache: the H&D bits widen every
      // line, which costs area and leakage; the FIFOs and threshold table add
      // storage. The paper argues these are small; this table quantifies them
      // for the default configuration and across window/partition choices. The
      // paper's default (W=15, K=8) widens each line by 16 bits: ~2.9% more
      // cells, with matching leakage. The threshold table is W+1 small entries
      // of precomputed bit-counts; the FIFOs are a few hundred bytes total.
      {.name = "table_overhead", .id = "T3",
       .title = "CNT-Cache storage / area / leakage overhead",
       .columns = {{"W", "window"}, {"K", "partitions"},
                   {"H&D bits/line", "meta_bits"},
                   pct("line overhead", "line_overhead"),
                   pct("area overhead", "area_overhead"),
                   pct("leakage overhead", "leakage_overhead"),
                   {"FIFO bytes", ""}, {"threshold entries", ""}},
       .report = [](auto&, auto&, Report& rep) {
         const SimConfig cfg;
         const ArrayGeometry base_geom = geometry_of(cfg.cache);
         const ArrayModel base(cfg.tech, base_geom);
         // Data FIFO holds line bytes per entry; index FIFO ~8 B.
         const usize fifo_bytes =
             cfg.cnt.fifo_depth * (cfg.cache.line_bytes + 8);
         for (const usize w : {7u, 15u, 31u}) {
           for (const usize k : {1u, 8u, 16u}) {
             const usize meta = history_bits(w) + k;
             ArrayGeometry geom = base_geom;
             geom.meta_bits = meta;
             const ArrayModel model(cfg.tech, geom);
             rep.row({w, k, meta,
                      static_cast<double>(meta) /
                          static_cast<double>(geom.line_bits() +
                                              geom.tag_bits + 2),
                      model.area_um2() / base.area_um2() - 1.0,
                      model.leakage_watts() / base.leakage_watts() - 1.0,
                      fifo_bytes, w + 1});
           }
         }
       }},

      // A1 -- fill-direction policy. The paper leaves the initial encoding
      // of a freshly filled line unspecified; this ablation quantifies the
      // natural choices (see FillDirectionPolicy) and justifies the
      // library default.
      {.name = "fig_fill_policy", .id = "A1",
       .title = "fill-time encoding-direction policy", .default_scale = 0.35,
       .columns = {{"fill policy", "policy"}, pct("mean saving", "mean_saving"),
                   {"fill inversions", "fill_inversions"},
                   {"re-encodes", "reencodes"}},
       .specs = over(cnt_only(), "fill_policy",
                     std::vector{FillDirectionPolicy::kAsIs,
                                 FillDirectionPolicy::kMinWriteEnergy,
                                 FillDirectionPolicy::kReadOptimized,
                                 FillDirectionPolicy::kByMissType},
                     [](SimConfig& c, FillDirectionPolicy v) {
                       c.cnt.fill_policy = v;
                     }),
       .report = each_point([](const Point& p, usize) -> Row {
         return {to_string(p.config().cnt.fill_policy), mean_saving(p.results),
                 total(p.results, &CntPolicyStats::fill_inversions),
                 reencodes(p.results)};
       })},

      // A2 -- write-accounting granularity: the paper's Eqs. (4)/(5) charge
      // every access for all L line bits; physically a store only drives the
      // accessed word's columns. This ablation runs both models so the
      // paper-exact numbers remain reproducible next to the library default.
      // The line model inflates store energy 8x (64 B line vs 8 B word), which
      // over-weights writes in both the baseline and the encoding decision.
      {.name = "fig_granularity", .id = "A2",
       .title = "write-accounting granularity (paper line model vs physical "
                "word model)",
       .default_scale = 0.35,
       .columns = {{"granularity", "granularity"},
                   pct("mean saving", "mean_saving"),
                   {"mean baseline energy", "mean_base_j"}},
       .specs = over(cnt_only(), "write_granularity",
                     std::vector{WriteGranularity::kWord,
                                 WriteGranularity::kLine},
                     [](SimConfig& c, WriteGranularity v) {
                       c.cnt.write_granularity = v;
                     }),
       .report = each_point([](const Point& p, usize) -> Row {
         return {to_string(p.config().cnt.write_granularity),
                 mean_saving(p.results),
                 mean_energy(p.results, kPolicyBaseline)};
       })},

      // A3 -- substrate sensitivity: does the saving depend on the cache's
      // replacement policy? (It shouldn't much: encoding profit follows
      // the data and access mix, and replacement only shifts which lines
      // are resident.)
      {.name = "fig_replacement", .id = "A3",
       .title = "replacement-policy sensitivity", .default_scale = 0.25,
       .columns = {{"replacement", "replacement"},
                   pct("mean hit%", "mean_hit_rate"),
                   pct("mean saving", "mean_saving")},
       .specs = over(cnt_only(), "replacement",
                     std::vector{ReplKind::kLru, ReplKind::kTreePlru,
                                 ReplKind::kFifo, ReplKind::kRandom},
                     [](SimConfig& c, ReplKind v) { c.cache.replacement = v; }),
       .report = each_point([](const Point& p, usize) -> Row {
         return {to_string(p.config().cache.replacement),
                 mean_hit_rate(p.results), mean_saving(p.results)};
       })},

      // A4 -- write-policy sensitivity: write-back vs write-through and
      // write-allocate vs no-write-allocate change how much write traffic
      // the data array absorbs, and with it the encoding opportunity.
      {.name = "fig_write_policy", .id = "A4",
       .title = "write-policy sensitivity", .default_scale = 0.25,
       .columns = {{"write policy", "write_policy"},
                   {"alloc policy", "alloc_policy"},
                   pct("mean saving", "mean_saving")},
       .specs = suite_sweep(cnt_only(),
                            [](exec::SweepSpec& s) {
                              axis(s, "write_policy",
                                   std::vector{WritePolicy::kWriteBack,
                                               WritePolicy::kWriteThrough},
                                   [](SimConfig& c, WritePolicy v) {
                                     c.cache.write_policy = v;
                                   });
                              axis(s, "alloc_policy",
                                   std::vector{AllocPolicy::kWriteAllocate,
                                               AllocPolicy::kNoWriteAllocate},
                                   [](SimConfig& c, AllocPolicy v) {
                                     c.cache.alloc_policy = v;
                                   });
                            }),
       .report = each_point([](const Point& p, usize) -> Row {
         return {to_string(p.config().cache.write_policy),
                 to_string(p.config().cache.alloc_policy),
                 mean_saving(p.results)};
       })},
  };
}

}  // namespace

const std::vector<Figure>& registry() {
  static const std::vector<Figure> kFigures = build_registry();
  return kFigures;
}

const Figure* find_figure(std::string_view name) {
  for (const Figure& f : registry()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace cnt::bench
