// cnt_sim: config-file-driven simulator front-end.
//
//   $ ./cnt_sim experiment.ini
//   $ ./cnt_sim experiment.ini workload2 0.5   # override workload + scale
//
// The INI keys are the field table in src/sim/config_io.cpp; [workload]
// name/scale select the stimulus, [output] json = <path> additionally
// dumps the machine-readable result. Unknown keys produce warnings rather
// than silent ignores.
#include <iostream>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "sim/config_io.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/workload_suite.hpp"

int main(int argc, char** argv) {
  std::string config_path;
  std::optional<std::string> workload_arg;
  std::optional<double> scale_arg;
  cnt::cli::Parser cli(
      "cnt_sim",
      "Simulate one workload under an INI configuration. Example config:\n"
      "  [cache]\n  size = 64k\n  ways = 8\n"
      "  [cnt]\n  window = 31\n  partitions = 16\n"
      "  [workload]\n  name = zipf_kv\n  scale = 1.0");
  cli.positional(&config_path, "config.ini", "the INI file", {.required = true})
      .positional(&workload_arg, "workload", "override [workload] name")
      .positional(&scale_arg, "scale", "override [workload] scale");
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  try {
    const cnt::Config ini = cnt::Config::load(config_path);

    // Warn about keys the reader does not understand (typos), with a
    // nearest-match suggestion when one is close enough.
    cnt::warn_unknown_keys(
        ini, {"workload.name", "workload.scale", "output.json"}, std::cerr);

    const cnt::SimConfig cfg = cnt::sim_config_from(ini);
    const std::string workload =
        workload_arg ? *workload_arg
                     : ini.get_string("workload.name", "zipf_kv");
    const double scale =
        scale_arg ? *scale_arg : ini.get_double("workload.scale", 1.0);

    std::cout << "cache   : " << cfg.cache.size_bytes / 1024 << " KiB "
              << cfg.cache.ways << "-way, " << cfg.cache.line_bytes
              << " B lines, " << to_string(cfg.cache.replacement) << ", "
              << to_string(cfg.cache.write_policy) << "/"
              << to_string(cfg.cache.alloc_policy) << "\n"
              << "cnt     : W=" << cfg.cnt.window << " K="
              << cfg.cnt.partitions << " fifo=" << cfg.cnt.fifo_depth
              << " fill=" << to_string(cfg.cnt.fill_policy)
              << " gran=" << to_string(cfg.cnt.write_granularity)
              << " hist=" << to_string(cfg.cnt.history_scope) << "\n"
              << "workload: " << workload << " @ scale " << scale << "\n\n";

    const cnt::Workload w = cnt::build_workload(workload, scale);
    const cnt::SimResult res = cnt::simulate(w, cfg);

    std::cout << "hit rate: " << cnt::Table::pct(res.cache_stats.hit_rate())
              << "\n\n"
              << cnt::breakdown_table(res) << "\nCNT-Cache saving vs "
              << cnt::kPolicyBaseline << ": "
              << cnt::Table::pct(res.saving(cnt::kPolicyCnt)) << "\n";

    if (const auto json_path = ini.get("output.json")) {
      cnt::dump_json_file({res}, *json_path);
      std::cout << "json: " << *json_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << cnt::format_error(e) << "\n";
    return 1;
  }
  return 0;
}
