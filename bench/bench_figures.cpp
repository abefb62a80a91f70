// bench_figures: regenerate the reproduced tables and figures (DESIGN.md's
// experiment index) from the registry in figures.cpp.
//
//   $ ./bench_figures                          # every figure, in order
//   $ ./bench_figures fig_window_sweep --jobs 4
//   $ ./bench_figures fig_variation --samples 40 --seed 7
//
// Each named figure prints its table and writes <NAME>.csv -- plus
// <NAME>.jsonl for the engine-backed figures -- into $CNT_RESULTS_DIR
// (default ./results); $CNT_BENCH_SCALE shrinks the workloads. Exit
// status: 0 ok, 1 on any figure error, 2 on a usage error, 130 when
// interrupted (rerun with --resume).
#include <cstdlib>
#include <vector>

#include "common/cli.hpp"
#include "exec/options.hpp"
#include "figures.hpp"
#include "sim/report.hpp"

using namespace cnt;

int main(int argc, char** argv) {
  std::vector<std::string> names;
  bench::Invocation inv{.resume = exec::resume_from_env(false)};
  std::vector<std::string> registered;
  for (const auto& f : bench::registry()) registered.push_back(f.name);

  cli::Parser cli("bench_figures",
                  "Regenerate the reproduced tables and figures (all of "
                  "them when none is named).");
  cli.positional(&names, "figure", "a registered figure",
                 {.choices = registered})
      .flag(&inv.jobs, "--jobs", "worker threads (default $CNT_JOBS)",
            {.alias = "-j", .min = 1})
      .flag(&inv.resume, "--resume", "replay finished jobs from the journal",
            {.negation = "--no-resume"})
      .flag(&inv.samples, "--samples", "fig_variation's samples (default 12)",
            {.min = 1})
      .flag(&inv.seed, "--seed", "re-roll the seeded figures");
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  std::vector<const bench::Figure*> chosen;
  for (const auto& name : names) chosen.push_back(bench::find_figure(name));
  if (chosen.empty()) {
    for (const auto& f : bench::registry()) chosen.push_back(&f);
  }

  inv.scale_text = std::getenv("CNT_BENCH_SCALE");
  inv.dir = results_dir();
  int status = 0;
  for (const bench::Figure* fig : chosen) {
    const int rc = bench::run_figure(*fig, inv);
    if (rc == 130) return rc;
    if (rc != 0) status = rc;
  }
  return status;
}
