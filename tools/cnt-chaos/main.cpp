// cnt-chaos: seeded chaos wall for the hung-work defenses
// (docs/robustness.md).
//
// Where cnt-crash tortures the durable writers one kill point at a time,
// cnt-chaos composes *schedules* of misbehaviour -- delays, transient
// errors, torn journal writes, hangs, signal storms -- over a real sweep
// (with a fault campaign armed, so the protected-array path is the one
// under chaos) and asserts the engine-level contract per seed:
//
//   no deadlock      every child finishes inside a hard wall-clock bound
//                    (a SIGKILL backstop turns a hang into a FAIL);
//   journal sane     the sweep journal is always loadable-or-refused --
//                    a --resume run either restores it byte-identically
//                    to the unchaosed reference or fails loudly;
//   quarantine exact a hang under the watchdog exits kExitQuarantine
//                    with exactly one sealed Q-row, and the resume run
//                    clears it.
//
// The failpoint trigger indices are chosen per (case, seed) from the hit
// counts of an instrumented reference run, so --seeds N sweeps N
// deterministic schedules per case.
//
//   cnt-chaos [--out DIR] [--seeds N] [--case NAME] [--keep] [--list]
//
// Exit 0 when every case holds, 1 on any violation, 2 on usage errors.
// Unix-only (fork/waitpid).
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "child_harness.hpp"
#include "common/cancel.hpp"
#include "exec/engine.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;
namespace fsys = std::filesystem;
using harness::ChildStatus;
using harness::pick_index;
using harness::read_report;
using harness::run_child;
using harness::slurp;

namespace {

int usage() {
  std::cerr << "usage: cnt-chaos [--out DIR] [--seeds N] [--case NAME]"
               " [--keep] [--list]\n"
               "  --out DIR    working directory (default: cnt_chaos_out)\n"
               "  --seeds N    schedules probed per case (default 1)\n"
               "  --case NAME  restrict to one chaos case\n"
               "  --keep       keep per-case directories for inspection\n"
               "  --list       print the chaos case catalog and exit\n";
  return 2;
}

/// Occurrences of the "quarantined" key in the journal -- the sink only
/// emits it on sealed Q-rows, so this is the quarantine report.
u64 count_quarantined(const std::string& journal_bytes) {
  static constexpr std::string_view kKey = "\"quarantined\"";
  u64 n = 0;
  for (usize at = journal_bytes.find(kKey); at != std::string::npos;
       at = journal_bytes.find(kKey, at + kKey.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Child-side payload: a real three-job sweep with a deterministic fault
// campaign, journaled with timing off so bytes compare across runs.

std::vector<exec::Job> chaos_jobs() {
  std::vector<exec::Job> jobs;
  for (const char* w : {"zipf_kv", "ifetch", "hash_join"}) {
    exec::Job j;
    j.workload = w;
    j.scale = 0.05;
    j.config.with_cmos = j.config.with_static = j.config.with_ideal = false;
    // Chaos runs exercise the protected-array path, not the clean model:
    // a seeded stuck-cell campaign under SECDED rides every job.
    j.config.fault.protection = ProtectionScheme::kSecded;
    j.config.fault.stuck_per_mbit = 4.0;
    jobs.push_back(j);
  }
  return jobs;
}

struct SweepParams {
  bool resume = false;
  u64 job_timeout_ms = 0;  ///< 0: watchdog disarmed
  u32 max_retries = 0;
  bool signal_storm = false;  ///< raise SIGINTs from a helper thread
};

int run_sweep(const std::string& dir, const SweepParams& p) {
  if (p.signal_storm) {
    // Escalating storm: with handle_signals the first SIGINT interrupts
    // gracefully and the second restores default disposition, so the
    // third (if the sweep is still alive) kills the process outright.
    std::thread([] {
      const cancel::Token pace;
      for (int i = 0; i < 3; ++i) {
        (void)pace.wait_ms(25);
        (void)std::raise(SIGINT);
      }
    }).detach();
  }
  exec::EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = dir + "/sweep.jsonl";
  opts.jsonl_timing = false;  // byte-identity across runs is the contract
  opts.resume = p.resume;
  opts.max_retries = p.max_retries;
  opts.retry_backoff_ms = 1;
  opts.job_timeout_ms = p.job_timeout_ms;
  opts.handle_signals = true;
  const exec::ExperimentEngine engine(opts);
  try {
    const std::vector<exec::JobOutcome> outcomes = engine.run(chaos_jobs());
    return exec::sweep_exit_code(outcomes);
  } catch (const exec::SweepInterrupted&) {
    return 130;
  }
}

/// One seeded chaos schedule over the sweep. `spec` may reference the
/// {job} / {journal} placeholders, replaced by seeded trigger indices.
struct ChaosCase {
  std::string name;
  std::string spec;       ///< failpoint schedule template
  SweepParams params;     ///< chaos-run engine knobs
  bool clean_exit;        ///< chaos run itself must exit 0, journal == ref
  bool quarantine_one;    ///< chaos run exits 3 with exactly one Q-row
  bool needs_resume;      ///< follow with a clean --resume run
};

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  // A delayed job changes nothing but wall clock.
  cases.push_back({"delay", "engine.job=delay:5@{job}", {},
                   /*clean_exit=*/true, false, false});
  // A transient job error is retried to a byte-identical completion.
  cases.push_back({"transient", "engine.job=error:EIO@{job}",
                   {.max_retries = 2},
                   /*clean_exit=*/true, false, false});
  // Composed schedule: a delay and a transient error in one run.
  cases.push_back({"compose",
                   "engine.job=delay:5@{job};engine.job=error:EIO@{job2}",
                   {.max_retries = 2},
                   /*clean_exit=*/true, false, false});
  // A torn journal write fails the sweep loudly; --resume restores it.
  cases.push_back({"short-write", "journal.write=short-write@{journal}", {},
                   /*clean_exit=*/false, false, /*needs_resume=*/true});
  // A hung job is cancelled by the watchdog and quarantined; the sweep
  // completes without it and --resume re-attempts only that job.
  cases.push_back({"hang", "engine.job=hang@{job}",
                   {.job_timeout_ms = 250},
                   /*clean_exit=*/false, /*quarantine_one=*/true,
                   /*needs_resume=*/true});
  // An escalating SIGINT storm: graceful interrupt, then default
  // disposition, possibly death mid-write; --resume restores.
  cases.push_back({"sigstorm", "",
                   {.signal_storm = true},
                   /*clean_exit=*/false, false, /*needs_resume=*/true});
  return cases;
}

struct Options {
  std::string out = "cnt_chaos_out";
  u64 seeds = 1;
  std::string only;  ///< empty: all cases
  bool keep = false;
};

}  // namespace

int main(int argc, char** argv) {
#if !defined(__unix__)
  std::cerr << "cnt-chaos: requires fork/waitpid (unix only)\n";
  return 2;
#else
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--list") {
      for (const auto& c : chaos_cases()) std::cout << c.name << "\n";
      return 0;
    }
    if (arg == "--keep") {
      opt.keep = true;
    } else if (arg == "--out" && val != nullptr) {
      opt.out = val;
      ++i;
    } else if (arg == "--seeds" && val != nullptr) {
      opt.seeds = std::strtoull(val, nullptr, 10);
      ++i;
    } else if (arg == "--case" && val != nullptr) {
      opt.only = val;
      ++i;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }
  if (opt.seeds == 0) opt.seeds = 1;

  std::error_code ec;
  fsys::create_directories(opt.out, ec);
  if (ec) {
    std::cerr << "cnt-chaos: cannot create " << opt.out << ": "
              << ec.message() << "\n";
    return 2;
  }

  u64 cases_run = 0;
  u64 failures = 0;
  auto fail = [&](const std::string& label, const std::string& why) {
    ++failures;
    std::cout << "FAIL " << label << ": " << why << "\n";
  };

  // Reference run: clean journal bytes + per-site hit counts that seed
  // the trigger indices.
  const std::string ref_dir = opt.out + "/ref";
  fsys::remove_all(ref_dir, ec);
  fsys::create_directories(ref_dir);
  const std::string report_path = ref_dir + "/failpoint_report.txt";
  const ChildStatus ref =
      run_child([&] { return run_sweep(ref_dir, {}); }, "", report_path,
                ref_dir + "/err.txt");
  if (ref.killed_backstop || ref.term_signal != 0 || ref.exit_code != 0) {
    std::cerr << "cnt-chaos: reference sweep did not exit 0\n";
    return 2;
  }
  const std::map<std::string, u64> counts = read_report(report_path);
  const std::string ref_bytes = slurp(ref_dir + "/sweep.jsonl");
  const u64 job_hits = counts.count("engine.job") ? counts.at("engine.job") : 0;
  const u64 journal_hits =
      counts.count("journal.write") ? counts.at("journal.write") : 0;
  if (ref_bytes.empty() || job_hits == 0 || journal_hits == 0) {
    std::cerr << "cnt-chaos: reference run left no journal or hit counts\n";
    return 2;
  }

  for (const ChaosCase& cc : chaos_cases()) {
    if (!opt.only.empty() && cc.name != opt.only) continue;
    for (u64 seed = 0; seed < opt.seeds; ++seed) {
      ++cases_run;
      // Substitute seeded trigger indices into the schedule template.
      std::string spec = cc.spec;
      auto subst = [&](const std::string& key, u64 index) {
        const usize at = spec.find(key);
        if (at != std::string::npos) {
          spec.replace(at, key.size(), std::to_string(index));
        }
      };
      const u64 kj = pick_index(cc.name + "|job", seed, job_hits);
      // A distinct second index so composed entries never collide.
      const u64 kj2 = 1 + kj % job_hits;
      subst("{job}", kj);
      subst("{job2}", kj2);
      subst("{journal}", pick_index(cc.name + "|journal", seed,
                                    journal_hits));

      const std::string label =
          cc.name + "/seed" + std::to_string(seed) +
          (spec.empty() ? "" : " [" + spec + "]");
      const std::string dir = opt.out + "/case_" + cc.name + "_s" +
                              std::to_string(seed);
      fsys::remove_all(dir, ec);
      fsys::create_directories(dir);

      SweepParams params = cc.params;
      const ChildStatus st =
          run_child([&] { return run_sweep(dir, params); }, spec, "",
                    dir + "/err.txt");
      bool ok = true;
      if (st.killed_backstop) {
        fail(label, "deadlock: child blew the wall-clock bound");
        ok = false;
      } else if (cc.clean_exit) {
        if (st.term_signal != 0 || st.exit_code != 0) {
          fail(label, "chaos schedule was not absorbed cleanly");
          ok = false;
        }
      } else if (cc.quarantine_one) {
        if (st.term_signal != 0 || st.exit_code != exec::kExitQuarantine) {
          fail(label, "hang did not exit kExitQuarantine");
          ok = false;
        } else {
          const u64 q = count_quarantined(slurp(dir + "/sweep.jsonl"));
          if (q != 1) {
            fail(label, "expected exactly 1 quarantined row, found " +
                            std::to_string(q));
            ok = false;
          }
        }
      } else if (cc.params.signal_storm) {
        // Graceful interrupt (130), death by the escalated storm, or a
        // photo-finish clean exit are all legal; a deadlock is not.
        if (st.term_signal != 0 && st.term_signal != SIGINT) {
          fail(label, "storm killed the child with an unexpected signal");
          ok = false;
        } else if (st.term_signal == 0 && st.exit_code != 0 &&
                   st.exit_code != 130) {
          fail(label, "storm produced an unexpected exit code");
          ok = false;
        }
      } else if (st.term_signal != 0 || st.exit_code == 0) {
        fail(label, "injected journal fault did not fail gracefully");
        ok = false;
      }

      // Recovery: a clean --resume run must complete and restore the
      // journal byte-identically -- loadable-or-refused, never readable
      // but wrong.
      if (ok && cc.needs_resume) {
        const ChildStatus rec = run_child(
            [&] {
              return run_sweep(dir, {.resume = true});
            },
            "", "", dir + "/err_resume.txt");
        if (rec.killed_backstop || rec.term_signal != 0 ||
            rec.exit_code != 0) {
          fail(label, "--resume recovery run failed");
          ok = false;
        }
      }

      if (ok) {
        const std::string got = slurp(dir + "/sweep.jsonl");
        const bool must_match = cc.clean_exit || cc.needs_resume;
        if (must_match && got != ref_bytes) {
          fail(label, "journal differs from the unchaosed reference");
          ok = false;
        } else if (must_match && count_quarantined(got) != 0) {
          fail(label, "quarantined row survived recovery");
          ok = false;
        }
      }

      if (ok) std::cout << "ok   " << label << "\n";
      if (!opt.keep) fsys::remove_all(dir, ec);
    }
  }
  if (!opt.keep) fsys::remove_all(ref_dir, ec);

  std::cout << "cnt-chaos: " << (cases_run - failures) << "/" << cases_run
            << " cases hold\n";
  return failures == 0 ? 0 : 1;
#endif  // defined(__unix__)
}
