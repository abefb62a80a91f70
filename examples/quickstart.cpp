// Quickstart: simulate one workload through a 32 KiB CNT-Cache and print
// where the energy goes.
//
//   $ ./quickstart [workload] [scale]
//
// Demonstrates the core public API: build a workload, configure the
// simulation, run it, inspect savings and the per-category breakdown.
#include <cstdlib>
#include <iostream>

#include "common/error.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "zipf_kv";
  const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::cout << "CNT-Cache quickstart\n====================\n\n";

  // 1. Build a benchmark workload (deterministic for a given scale).
  cnt::Workload w;
  try {
    w = cnt::build_workload(workload, scale);
  } catch (const cnt::ValueError& e) {  // a bad scale, not a bad name
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\nknown workloads:";
    for (const auto& n : cnt::suite_names()) std::cerr << ' ' << n;
    std::cerr << " ifetch\n";
    return 1;
  }
  const auto ts = w.trace.stats();
  std::cout << "workload    : " << w.name << " -- " << w.description << "\n"
            << "accesses    : " << ts.accesses << " (" << ts.writes
            << " writes)\n"
            << "footprint   : " << ts.footprint_kib << " KiB\n\n";

  // 2. Configure the simulated cache (defaults: 32 KiB, 4-way, 64 B lines,
  //    W = 15, K = 8 partitions -- the paper's setup).
  cnt::SimConfig cfg;

  // 3. Run. One functional pass; every energy policy observes it.
  const cnt::SimResult res = cnt::simulate(w, cfg);

  std::cout << "hit rate    : "
            << cnt::Table::pct(res.cache_stats.hit_rate()) << "\n\n";

  std::cout << "dynamic energy by policy:\n";
  for (const auto& p : res.policies) {
    std::cout << "  " << p.name << (p.name.size() < 8 ? "\t\t" : "\t")
              << p.total().to_string() << "\n";
  }
  std::cout << "\nCNT-Cache saving vs CNFET baseline: "
            << cnt::Table::pct(res.saving(cnt::kPolicyCnt)) << "\n\n";

  std::cout << "energy breakdown:\n" << cnt::breakdown_table(res) << "\n";

  const auto* p = res.find(cnt::kPolicyCnt);
  if (p != nullptr && p->has_cnt_stats) {
    std::cout << "predictor activity: " << p->cnt_stats.windows_evaluated
              << " windows, " << p->cnt_stats.switch_decisions
              << " switch decisions, " << p->cnt_stats.reencodes_applied
              << " re-encodes applied, " << p->queue_stats.dropped_full
              << " FIFO drops\n";
  }
  return 0;
}
