// cnt_sweep: sweep any configuration key without writing a bench binary,
// executed in parallel on the experiment engine.
//
//   $ ./cnt_sweep - cnt.window 3,7,15,31 suite 0.2
//   $ ./cnt_sweep - cache.size 8k,16k,32k,64k zipf_kv 0.5 --jobs 8
//   $ ./cnt_sweep base.ini cnt.fill as-is,min-write,read-optimized,by-miss-type
//   $ ./cnt_sweep - cnt.window 3,7,15 suite 0.2 --jsonl sweep.jsonl --resume
//
// "-" uses the built-in defaults as the base configuration. The key may be
// any key of the field table in src/sim/config_io.cpp except `policies.*`:
// every sweep runs the baseline and CNT-Cache only. A key outside the table
// is refused (exit 2); unknown keys in the base INI are warned about.
// Parallelism: --jobs N, else $CNT_JOBS, else all hardware threads;
// results are deterministic and identical to --jobs 1 regardless.
// Ctrl-C stops the sweep gracefully; with --jsonl the flushed journal can
// be picked up by rerunning with --resume (docs/resumable_sweeps.md).
// --job-timeout-ms N (or $CNT_JOB_TIMEOUT_MS) arms the per-attempt
// watchdog: a hung job is cancelled and quarantined, the sweep completes
// without it, and the process exits 3 (docs/robustness.md).
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "exec/engine.hpp"
#include "exec/options.hpp"
#include "sim/config_io.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, key, value_list, target = "suite", jsonl_path;
  double scale = 0.25;
  usize jobs = 0;
  u64 job_timeout_ms = 0;
  bool resume = exec::resume_from_env(false);
  cli::Parser cli("cnt_sweep",
                  "Sweep one configuration key over a workload or the suite.");
  cli.positional(&base_path, "base", "INI file, or - for the defaults",
                 {.required = true})
      .positional(&key, "key", "a config key, e.g. cnt.window",
                  {.required = true})
      .positional(&value_list, "values", "comma-separated, e.g. 3,7,15",
                  {.required = true})
      .positional(&target, "workload", "a workload, or suite (default)")
      .positional(&scale, "scale", "workload scale (default 0.25)")
      .flag(&jobs, "--jobs", "worker threads (default $CNT_JOBS)",
            {.alias = "-j", .min = 1})
      .flag(&jsonl_path, "--jsonl", "write the journal here", {.value = "PATH"})
      .flag(&resume, "--resume", "replay finished jobs from the journal",
            {.negation = "--no-resume"})
      .flag(&job_timeout_ms, "--job-timeout-ms",
            "cancel an attempt after N ms (default $CNT_JOB_TIMEOUT_MS)",
            {.min = 1});
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  const auto values = split_csv(value_list);
  if (values.empty()) return cli.usage_error("<values> lists no value");
  if (resume && jsonl_path.empty()) {
    return cli.usage_error("--resume needs a journal; pass --jsonl <path>");
  }
  const auto known = known_sim_config_keys();
  if (std::find(known.begin(), known.end(), key) == known.end()) {
    return cli.usage_error(unknown_key_message(key, known));
  }
  if (key.starts_with("policies.")) {
    return cli.usage_error("cannot sweep '" + key +
                           "': every sweep runs the baseline and CNT-Cache "
                           "only");
  }

  try {
    const Config base =
        base_path == "-" ? Config{} : Config::load(base_path);
    warn_unknown_keys(base, {}, std::cerr);
    const std::vector<std::string> loads =
        target == "suite" ? suite_names()
                          : std::vector<std::string>{target};

    // One job per (value, workload); tag "key=value" groups them back.
    std::vector<exec::Job> batch;
    for (const auto& value : values) {
      Config cfg_ini = base;
      cfg_ini.set(key, value);
      SimConfig cfg = sim_config_from(cfg_ini);
      cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
      for (const auto& w : loads) {
        exec::Job job;
        job.workload = w;
        job.tag = key + "=" + value;
        job.config = cfg;
        job.scale = scale;
        batch.push_back(std::move(job));
      }
    }

    exec::ExperimentEngine engine({.jobs = jobs,
                                   .jsonl_path = jsonl_path,
                                   .progress = true,
                                   .resume = resume,
                                   .job_timeout_ms = job_timeout_ms,
                                   .handle_signals = true});
    std::vector<exec::JobOutcome> outcomes;
    try {
      outcomes = engine.run(std::move(batch));
    } catch (const exec::SweepInterrupted& e) {
      std::cerr << "\ninterrupted after " << e.completed() << "/"
                << e.total() << " jobs; journal flushed to "
                << e.journal_path()
                << "\nrerun with --resume to finish the remaining jobs\n";
      return 130;
    }
    const auto groups = exec::group_by_tag(outcomes);

    Table t({key, "baseline", "CNT-Cache", "saving"});
    for (usize i = 0; i < groups.size(); ++i) {
      // A group with quarantined/failed jobs has no meaningful aggregate;
      // render the damage instead of aborting the whole report.
      usize failed = 0;
      for (const exec::JobOutcome* o : groups[i].outcomes) {
        if (!o->ok) ++failed;
      }
      if (failed > 0) {
        t.add_row({values[i], "-", "-",
                   "quarantined (" + std::to_string(failed) + "/" +
                       std::to_string(groups[i].outcomes.size()) + ")"});
        continue;
      }
      const auto results = exec::results_of(groups[i].outcomes);
      double saving = 0;
      Energy base_e{}, cnt_e{};
      for (const auto& r : results) {
        base_e += r.energy(kPolicyBaseline);
        cnt_e += r.energy(kPolicyCnt);
      }
      base_e = base_e / static_cast<double>(results.size());
      cnt_e = cnt_e / static_cast<double>(results.size());
      saving = target == "suite" ? mean_saving(results)
                                 : results.front().saving(kPolicyCnt);
      t.add_row({values[i], base_e.to_string(), cnt_e.to_string(),
                 Table::pct(saving)});
    }
    std::cout << "sweep over " << key << " ("
              << (target == "suite" ? "suite mean" : target) << ", scale "
              << scale << ", " << engine.worker_count() << " jobs)\n\n"
              << t.render();
    if (!jsonl_path.empty()) std::cout << "\njsonl: " << jsonl_path << "\n";
    const usize quarantined = exec::quarantined_count(outcomes);
    if (quarantined > 0) {
      std::cerr << "warning: " << quarantined << " job(s) quarantined ("
                << "timed out or exhausted retries); the journal records "
                   "each as a sealed Q-row -- rerun with --resume to "
                   "re-attempt only those jobs\n";
      return exec::sweep_exit_code(outcomes);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << cnt::format_error(e) << "\n";
    return 1;
  }
  return 0;
}
