#include "sim/report.hpp"

#include <cstdlib>
#include <filesystem>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace cnt {

std::string savings_table(const std::vector<SimResult>& results) {
  Table t({"workload", "hit%", "wr%", "CMOS", "CNFET base", "static",
           "CNT-Cache", "ideal", "saving"});
  Accumulator saving_acc;
  for (const auto& r : results) {
    const double saving = r.saving(kPolicyCnt);
    saving_acc.add(saving);
    auto cell = [&r](std::string_view name) {
      const auto* p = r.find(name);
      return p == nullptr ? std::string("-") : p->total().to_string();
    };
    t.add_row({r.workload, Table::pct(r.cache_stats.hit_rate()),
               Table::pct(r.trace_stats.write_fraction), cell(kPolicyCmos),
               cell(kPolicyBaseline), cell(kPolicyStatic), cell(kPolicyCnt),
               cell(kPolicyIdeal), Table::pct(saving)});
  }
  t.add_row({"mean", "", "", "", "", "", "", "", Table::pct(saving_acc.mean())});
  return t.render();
}

double mean_saving(const std::vector<SimResult>& results,
                   std::string_view opt, std::string_view base) {
  Accumulator acc;
  for (const auto& r : results) acc.add(r.saving(opt, base));
  return acc.mean();
}

std::string breakdown_table(const SimResult& result) {
  std::vector<std::string> headers{"category"};
  for (const auto& p : result.policies) headers.push_back(p.name);
  Table t(std::move(headers));

  for (usize c = 0; c < static_cast<usize>(EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<EnergyCategory>(c);
    std::vector<std::string> row{std::string(to_string(cat))};
    bool any = false;
    for (const auto& p : result.policies) {
      const Energy e = p.ledger.get(cat);
      if (e.in_joules() != 0.0) any = true;
      row.push_back(e.to_string());
    }
    if (any) t.add_row(std::move(row));
  }

  std::vector<std::string> total_row{"TOTAL"};
  for (const auto& p : result.policies) {
    total_row.push_back(p.total().to_string());
  }
  t.add_row(std::move(total_row));
  return t.render();
}

std::string fault_table(const std::vector<SimResult>& results) {
  Table t({"workload", "stuck", "flips", "corrected", "detected", "SDC bits",
           "dir flips", "dir SDC", "saving"});
  for (const auto& r : results) {
    if (!r.has_fault) continue;
    const FaultStats& fs = r.fault_stats;
    t.add_row({r.workload,
               std::to_string(fs.stuck_data_cells + fs.stuck_dir_cells),
               std::to_string(fs.transient_data_flips +
                              fs.transient_dir_flips),
               std::to_string(fs.corrected_bits + fs.dir_corrected_bits),
               std::to_string(fs.detected_events + fs.dir_detected_events),
               std::to_string(fs.silent_bits),
               std::to_string(fs.dir_flips),
               std::to_string(fs.dir_silent_bits),
               Table::pct(r.saving(kPolicyCnt))});
  }
  return t.render();
}

void write_savings_csv(const std::vector<SimResult>& results,
                       const std::string& path) {
  CsvWriter csv(path,
                {"workload", "hit_rate", "write_fraction", "cmos_j",
                 "cnfet_base_j", "static_j", "cnt_j", "ideal_j", "saving"});
  for (const auto& r : results) {
    auto joules = [&r](std::string_view name) {
      const auto* p = r.find(name);
      return p == nullptr ? std::string()
                          : std::to_string(p->total().in_joules());
    };
    csv.add_row({r.workload, std::to_string(r.cache_stats.hit_rate()),
                 std::to_string(r.trace_stats.write_fraction),
                 joules(kPolicyCmos), joules(kPolicyBaseline),
                 joules(kPolicyStatic), joules(kPolicyCnt),
                 joules(kPolicyIdeal), std::to_string(r.saving(kPolicyCnt))});
  }
  csv.finish();
}

std::string results_dir() {
  const char* env = std::getenv("CNT_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "results";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace cnt
