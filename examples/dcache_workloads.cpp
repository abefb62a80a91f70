// D-Cache workload explorer: run the full ten-program suite and print the
// per-workload savings table (the headline experiment, interactively).
//
//   $ ./dcache_workloads 0.5 31 16
//
// runs at half trace length with a 31-access window and 16 partitions per
// line.
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  cnt::SimConfig cfg;
  double scale = 1.0;
  cnt::cli::Parser cli("dcache_workloads",
                       "Run the D-Cache suite; print per-workload savings.");
  cli.positional(&scale, "scale", "workload scale (default 1)")
      .positional(&cfg.cnt.window, "window", "W (default 15)")
      .positional(&cfg.cnt.partitions, "partitions", "K (default 8)");
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  try {
    cfg.cnt.validate(cfg.cache.line_bytes);
    std::cout << "CNT-Cache D-Cache suite\n"
              << "  cache   : " << cfg.cache.size_bytes / 1024 << " KiB, "
              << cfg.cache.ways << "-way, " << cfg.cache.line_bytes
              << " B lines\n"
              << "  window  : W = " << cfg.cnt.window << "\n"
              << "  K       : " << cfg.cnt.partitions << " partitions\n"
              << "  fill    : " << to_string(cfg.cnt.fill_policy) << "\n"
              << "  scale   : " << scale << "\n\n";

    const auto results = cnt::run_suite(cfg, scale);
    std::cout << cnt::savings_table(results) << "\n";
    std::cout << "mean CNT-Cache saving vs CNFET baseline: "
              << cnt::Table::pct(cnt::mean_saving(results))
              << "   (paper reports 22.2% on its benchmark set)\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << cnt::format_error(e) << "\n";
    return 1;
  }
  return 0;
}
