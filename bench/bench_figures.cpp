// bench_figures: regenerate the reproduced tables and figures (DESIGN.md's
// experiment index) from the registry in figures.cpp.
//
//   bench_figures [NAME...] [--jobs N | -j N | --jobs=N]
//                 [--resume | --no-resume] [--samples N] [--seed S]
//
// Each NAME (e.g. fig_window_sweep) prints its table and writes
// <NAME>.csv -- plus <NAME>.jsonl for the engine-backed figures -- into
// $CNT_RESULTS_DIR (default ./results); $CNT_BENCH_SCALE shrinks the
// workloads. With no NAME every figure runs in registry order. Exit
// status: 0 ok, 1 on any figure error, 2 for an unknown name or option,
// 130 when interrupted (rerun with --resume).
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <vector>

#include "figures.hpp"
#include "sim/report.hpp"

using namespace cnt;

int main(int argc, char** argv) {
  std::vector<const bench::Figure*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with('-')) {
      // The flags themselves are read from argv by the figures; here
      // only their spelling is checked, so a typo never runs the registry.
      if (arg == "--resume" || arg == "--no-resume" ||
          arg.starts_with("--jobs=")) {
        continue;
      }
      if ((arg == "--jobs" || arg == "-j" || arg == "--samples" ||
           arg == "--seed") &&
          i + 1 < argc) {
        ++i;  // the flag's value
        continue;
      }
      std::cerr << "bench_figures: unknown or incomplete option '" << arg
                << "'; accepted: --jobs N, -j N, --jobs=N, --resume, "
                   "--no-resume, --samples N, --seed N\n";
      return 2;
    }
    const bench::Figure* fig = bench::find_figure(arg);
    if (fig == nullptr) {
      std::cerr << "bench_figures: unknown figure '" << arg
                << "'; registered figures:\n";
      for (const auto& f : bench::registry()) {
        std::cerr << "  " << f.name << "\n";
      }
      return 2;
    }
    chosen.push_back(fig);
  }
  if (chosen.empty()) {
    for (const auto& f : bench::registry()) chosen.push_back(&f);
  }

  const bench::Invocation inv{argc, argv, std::getenv("CNT_BENCH_SCALE"),
                              results_dir()};
  int status = 0;
  for (const bench::Figure* fig : chosen) {
    const int rc = bench::run_figure(*fig, inv);
    if (rc == 130) return rc;
    if (rc != 0) status = rc;
  }
  return status;
}
