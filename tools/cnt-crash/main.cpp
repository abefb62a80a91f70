// cnt-crash: kill-point torture harness for the crash-consistency wall
// (docs/crash_consistency.md).
//
// For every failpoint site in the catalog (common/failpoint.hpp) the
// harness forks a child that runs a small deterministic workload with
// that site armed, then verifies the recovery contract from the parent:
//
//   crash          the child is SIGKILLed at the site (a power cut);
//                  afterwards either the artifact is absent, byte-equal
//                  to a clean reference run, refused by its reader, or
//                  -- for the sweep journal -- restored byte-identically
//                  by a --resume run;
//   error:ENOSPC   the child fails gracefully (nonzero exit, no kill)
//                  and the same artifact invariant holds;
//   short-write    (write sites only) a torn prefix lands on disk and
//                  the same invariant holds.
//
// The kill index is chosen per (site, action, seed) from the hit counts
// of an instrumented reference run ($CNT_FAILPOINT_REPORT), so --seeds N
// sweeps N different kill points per site deterministically.
//
//   cnt-crash [--out DIR] [--seeds N] [--site NAME] [--keep] [--list]
//
// --list prints the site catalog. Exit 0 when every case holds, 1 on any
// violation, 2 on usage errors. Unix-only (fork/waitpid).
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "child_harness.hpp"
#include "common/csv.hpp"
#include "common/failpoint.hpp"
#include "exec/engine.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;
namespace fsys = std::filesystem;
using harness::ChildStatus;
using harness::pick_index;
using harness::read_report;
using harness::slurp;

namespace {

int usage() {
  std::cerr << "usage: cnt-crash [--out DIR] [--seeds N] [--site NAME]"
               " [--keep] [--list]\n"
               "  --out DIR    working directory (default: cnt_crash_out)\n"
               "  --seeds N    kill points probed per site+action (default 1)\n"
               "  --site NAME  restrict to one failpoint site\n"
               "  --keep       keep per-case directories for inspection\n"
               "  --list       print the failpoint site catalog and exit\n";
  return 2;
}

// ---------------------------------------------------------------------------
// Child-side payloads. Each writes its artifact(s) under `dir`; the
// armed failpoint decides where (and whether) it dies.

std::vector<exec::Job> sweep_jobs() {
  std::vector<exec::Job> jobs;
  for (const char* w : {"zipf_kv", "ifetch", "hash_join"}) {
    exec::Job j;
    j.workload = w;
    j.scale = 0.05;
    jobs.push_back(j);
  }
  return jobs;
}

void run_sweep(const std::string& dir, bool resume) {
  exec::EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = dir + "/sweep.jsonl";
  opts.jsonl_timing = false;  // byte-identity across runs is the contract
  opts.resume = resume;
  opts.max_retries = 2;  // injected engine.job failures must retry clean
  opts.retry_backoff_ms = 1;
  const exec::ExperimentEngine engine(opts);
  (void)engine.run(sweep_jobs());
}

void run_trs(const std::string& dir) {
  stream::StreamTraceWriter writer(dir + "/torture.trs", 64);
  for (u64 i = 0; i < 500; ++i) {
    MemAccess a;
    a.addr = (i % 512) * 64;
    a.size = 8;
    a.op = (i % 7 == 0) ? MemOp::kWrite : MemOp::kRead;
    a.value = i * 0x9e3779b97f4a7c15ULL;
    writer.push(a);
  }
  writer.finish();
}

void run_csv(const std::string& dir) {
  CsvWriter csv(dir + "/torture.csv", {"row", "payload"});
  for (u64 i = 0; i < 64; ++i) {
    csv.add_row({std::to_string(i), std::to_string(i * 31)});
  }
  csv.finish();
}

void run_stats(const std::string& dir) {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  const Workload w = build_workload("ifetch", 0.05, 0);
  dump_json_file({simulate(w, cfg)}, dir + "/torture_stats.json");
}

void run_trace(const std::string& dir) {
  Trace t("torture");
  for (u64 i = 0; i < 300; ++i) {
    MemAccess a;
    a.addr = (i % 128) * 64;
    a.size = 8;
    a.op = (i % 3 == 0) ? MemOp::kWrite : MemOp::kRead;
    a.value = i ^ 0x5a5a5a5aULL;
    t.push(a);
  }
  save_trace(t, dir + "/torture.txt");
}

// ---------------------------------------------------------------------------
// Parent-side verification.

/// True when the chunked-trace reader refuses `path` (torn tail, bad
/// CRC, truncated footer) -- the contract for crash-landed .trs files.
bool trs_refused(const std::string& path) {
  try {
    stream::StreamTraceSource src(path);
    std::vector<MemAccess> buf(256);
    while (src.next(std::span<MemAccess>(buf)) > 0) {
    }
    return false;
  } catch (const std::exception&) {
    return true;
  }
}

#if defined(__unix__)

/// Run one scenario step, `step(dir)`, in a forked child under the
/// harness's failpoint spec and wall-clock deadline.
ChildStatus run_child(const std::function<void(const std::string&)>& step,
                      const std::string& dir, const std::string& spec,
                      const std::string& report, const std::string& err_path) {
  return harness::run_child(
      [&] {
        step(dir);
        return 0;
      },
      spec, report, err_path);
}

/// A child the SIGKILL crash action (not the backstop) terminated.
bool crashed(const ChildStatus& st) { return st.term_signal == SIGKILL; }

#endif  // defined(__unix__)

struct Scenario {
  std::string name;
  std::vector<std::string> sites;
  std::function<void(const std::string&)> payload;
  std::function<void(const std::string&)> recover;  ///< empty: no resume
  std::string artifact;       ///< final artifact, relative to the case dir
  bool torn_refusable = false;  ///< reader-refusal satisfies the invariant
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> s;
  s.push_back(Scenario{
      "sweep",
      {"engine.job", "journal.write", "journal.sync", "journal.rename"},
      [](const std::string& dir) { run_sweep(dir, /*resume=*/false); },
      [](const std::string& dir) { run_sweep(dir, /*resume=*/true); },
      "sweep.jsonl",
      false});
  s.push_back(Scenario{"tracegen",
                       {"trs.write", "trs.sync"},
                       run_trs,
                       nullptr,
                       "torture.trs",
                       /*torn_refusable=*/true});
  s.push_back(Scenario{"csv",
                       {"csv.write", "csv.sync", "csv.rename"},
                       run_csv,
                       nullptr,
                       "torture.csv",
                       false});
  s.push_back(Scenario{"stats",
                       {"stats.write", "stats.sync", "stats.rename"},
                       run_stats,
                       nullptr,
                       "torture_stats.json",
                       false});
  s.push_back(Scenario{"trace",
                       {"trace.write", "trace.sync", "trace.rename"},
                       run_trace,
                       nullptr,
                       "torture.txt",
                       false});
  return s;
}

struct Options {
  std::string out = "cnt_crash_out";
  u64 seeds = 1;
  std::string site;  ///< empty: all sites
  bool keep = false;
};

}  // namespace

int main(int argc, char** argv) {
#if !defined(__unix__)
  std::cerr << "cnt-crash: requires fork/waitpid (unix only)\n";
  return 2;
#else
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--list") {
      for (const auto& site : fp::site_catalog()) std::cout << site << "\n";
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
    } else if (arg == "--site" && val != nullptr) {
      opt.site = val;
      ++i;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }
  if (opt.seeds == 0) opt.seeds = 1;
  if (!opt.site.empty()) {
    const auto& catalog = fp::site_catalog();
    if (std::find(catalog.begin(), catalog.end(), opt.site) ==
        catalog.end()) {
      std::cerr << "cnt-crash: unknown site '" << opt.site
                << "' (see --list)\n";
      return 2;
    }
  }

  std::error_code ec;
  fsys::create_directories(opt.out, ec);
  if (ec) {
    std::cerr << "cnt-crash: cannot create " << opt.out << ": "
              << ec.message() << "\n";
    return 2;
  }

  u64 cases = 0;
  u64 failures = 0;
  auto fail = [&](const std::string& label, const std::string& why) {
    ++failures;
    std::cout << "FAIL " << label << ": " << why << "\n";
  };

  for (const Scenario& sc : scenarios()) {
    // Skip scenarios with no site selected.
    bool any = opt.site.empty();
    for (const auto& site : sc.sites) any = any || site == opt.site;
    if (!any) continue;

    // Reference run: clean artifact bytes + per-site hit counts.
    const std::string ref_dir = opt.out + "/ref_" + sc.name;
    fsys::remove_all(ref_dir, ec);
    fsys::create_directories(ref_dir);
    const std::string report_path = ref_dir + "/failpoint_report.txt";
    const ChildStatus ref = run_child(sc.payload, ref_dir, "", report_path,
                                      ref_dir + "/err.txt");
    if (ref.killed_backstop || ref.term_signal != 0 || ref.exit_code != 0) {
      fail(sc.name + "/reference", "clean run did not exit 0");
      continue;
    }
    const std::map<std::string, u64> counts = read_report(report_path);
    const std::string ref_bytes = slurp(ref_dir + "/" + sc.artifact);
    if (ref_bytes.empty()) {
      fail(sc.name + "/reference", "clean run left no artifact");
      continue;
    }

    for (const std::string& site : sc.sites) {
      if (!opt.site.empty() && site != opt.site) continue;
      const auto it = counts.find(site);
      if (it == counts.end() || it->second == 0) {
        fail(sc.name + "/" + site, "site never evaluated by the scenario");
        continue;
      }
      const u64 count = it->second;

      std::vector<std::string> actions = {"crash", "error:ENOSPC"};
      if (site.size() > 6 &&
          site.compare(site.size() - 6, 6, ".write") == 0) {
        actions.push_back("short-write");
      }
      for (u64 seed = 0; seed < opt.seeds; ++seed) {
        for (const std::string& action : actions) {
          ++cases;
          const u64 k = pick_index(site + "|" + action, seed, count);
          const std::string spec =
              site + "=" + action + "@" + std::to_string(k);
          const std::string label = sc.name + "/" + spec;
          const std::string dir =
              opt.out + "/case_" + std::to_string(cases);
          fsys::remove_all(dir, ec);
          fsys::create_directories(dir);

          const ChildStatus st =
              run_child(sc.payload, dir, spec, "", dir + "/err.txt");
          bool ok = true;
          if (st.killed_backstop) {
            fail(label, "hung: child blew the wall-clock bound");
            ok = false;
          } else if (action == "crash") {
            if (!crashed(st)) {
              fail(label, "armed crash did not SIGKILL the child");
              ok = false;
            }
          } else if (site == "engine.job") {
            // An injected transient job failure is retried to a clean,
            // byte-identical completion -- not an exit at all.
            if (st.term_signal != 0 || st.exit_code != 0) {
              fail(label, "transient job failure was not retried clean");
              ok = false;
            }
          } else if (st.term_signal != 0 || st.exit_code == 0) {
            fail(label, "injected I/O error did not fail gracefully");
            ok = false;
          }

          // Recovery: a --resume run must restore the journal
          // byte-identically from whatever the fault left behind.
          if (ok && sc.recover && !(site == "engine.job" &&
                                    action != "crash")) {
            const ChildStatus rec = run_child(sc.recover, dir, "", "",
                                              dir + "/err_resume.txt");
            if (rec.killed_backstop || rec.term_signal != 0 ||
                rec.exit_code != 0) {
              fail(label, "--resume recovery run failed");
              ok = false;
            }
          }

          // Artifact invariant: absent, byte-equal to the reference, or
          // (chunked traces) refused by the reader. Never readable but
          // wrong.
          if (ok) {
            const std::string final_path = dir + "/" + sc.artifact;
            if (fsys::exists(final_path)) {
              const std::string got = slurp(final_path);
              if (got != ref_bytes &&
                  !(sc.torn_refusable && trs_refused(final_path))) {
                fail(label, "artifact is readable but differs from the "
                            "reference");
                ok = false;
              }
            } else if (sc.recover) {
              fail(label, "journal missing after recovery");
              ok = false;
            }
          }

          if (ok) std::cout << "ok   " << label << "\n";
          if (!opt.keep) fsys::remove_all(dir, ec);
        }
      }
    }
    if (!opt.keep) fsys::remove_all(ref_dir, ec);
  }

  std::cout << "cnt-crash: " << (cases - failures) << "/" << cases
            << " cases hold\n";
  return failures == 0 ? 0 : 1;
#endif  // defined(__unix__)
}
