// cnt-torture: the fork-based torture wall (docs/crash_consistency.md,
// docs/robustness.md).
//
// Every case forks a child that runs a small deterministic payload with a
// failpoint schedule armed (CNT_FAILPOINTS, common/failpoint.hpp), then
// checks from the parent how the child ended and what it left on disk.
// The catalog has two families:
//
//   crash  every failpoint site x {crash, error:ENOSPC, short-write on
//          .write sites}: the child is SIGKILLed (a power cut) or fails
//          gracefully, and its artifact is afterwards absent, byte-equal
//          to a clean reference run, refused by its reader, or -- for
//          the sweep journal -- restored byte-identically by --resume;
//   chaos  six schedules over a sweep with a SECDED stuck-cell campaign
//          armed (delays, transient errors, a torn journal write, a hang
//          under the watchdog, a SIGINT storm): no deadlock, exactly one
//          quarantined row for the hang, and a journal that --resume
//          restores byte-identically.
//
// Trigger indices are chosen per (case, seed) from the hit counts of an
// instrumented reference run ($CNT_FAILPOINT_REPORT), so --seeds N
// probes N deterministic trigger points per case.
//
//   $ cnt-torture --seeds 3 --out /tmp/tw
//   $ cnt-torture --family chaos --keep
//   $ cnt-torture --case journal.write --seeds 2
//
// --case takes a crash site or a chaos case name; --list prints the case
// catalog. Exit 0 when every case holds, 1 on any violation (a failed
// reference run included), 2 on usage errors. Unix-only (fork/waitpid).
#include <csignal>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "child_harness.hpp"
#include "common/cancel.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
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
using harness::slurp;

namespace {

// ---------------------------------------------------------------------------
// Child-side payloads. Each writes its artifact under `dir` and returns
// the child's exit status; the armed failpoint decides where (and
// whether) it dies. Only the sweep reads the engine knobs.

/// The three-job sweep both families journal. The crash family runs all
/// five policies on the clean model; the chaos family runs CNT only,
/// with a seeded stuck-cell campaign under SECDED riding every job, so
/// the protected-array path is the one under chaos.
std::vector<exec::Job> sweep_jobs(bool fault_campaign) {
  std::vector<exec::Job> jobs;
  for (const char* w : {"zipf_kv", "ifetch", "hash_join"}) {
    exec::Job j;
    j.workload = w;
    j.scale = 0.05;
    if (fault_campaign) {
      j.config.with_cmos = j.config.with_static = j.config.with_ideal = false;
      j.config.fault.protection = ProtectionScheme::kSecded;
      j.config.fault.stuck_per_mbit = 4.0;
    }
    jobs.push_back(j);
  }
  return jobs;
}

struct SweepParams {
  std::vector<exec::Job> jobs;
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
    return exec::sweep_exit_code(engine.run(p.jobs));
  } catch (const exec::SweepInterrupted&) {
    return 130;
  }
}

int run_trs(const std::string& dir, const SweepParams& /*unused*/) {
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
  return 0;
}

int run_csv(const std::string& dir, const SweepParams& /*unused*/) {
  CsvWriter csv(dir + "/torture.csv", {"row", "payload"});
  for (u64 i = 0; i < 64; ++i) {
    csv.add_row({std::to_string(i), std::to_string(i * 31)});
  }
  csv.finish();
  return 0;
}

int run_stats(const std::string& dir, const SweepParams& /*unused*/) {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  const Workload w = build_workload("ifetch", 0.05, 0);
  dump_json_file({simulate(w, cfg)}, dir + "/torture_stats.json");
  return 0;
}

int run_trace(const std::string& dir, const SweepParams& /*unused*/) {
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
  return 0;
}

// ---------------------------------------------------------------------------
// The case catalog.

using Payload = int (*)(const std::string& dir, const SweepParams& p);

/// How the armed child must end.
enum class Expect : u8 {
  kCrash,       ///< SIGKILLed by the armed crash action
  kClean,       ///< exits 0: the fault is retried or absorbed
  kFail,        ///< fails gracefully: nonzero exit, no signal
  kQuarantine,  ///< exits kExitQuarantine with exactly one Q-row
  kStorm,       ///< 130, SIGINT or a photo-finish 0: a SIGINT storm's end
};

struct Case {
  std::string family;    ///< "crash" or "chaos"
  std::string payload;   ///< payload name; one reference run per family+name
  std::string name;      ///< what --case selects: crash site or chaos case
  std::string spec;      ///< failpoint schedule template (see expand())
  Payload run;
  SweepParams knobs;     ///< engine knobs for the armed run
  Expect expect;
  bool resume;           ///< a clean --resume run follows
  std::string artifact;  ///< final artifact, relative to the case dir
  bool refusable;        ///< reader refusal satisfies the invariant
};

std::vector<Case> catalog() {
  std::vector<Case> cases;
  struct Writer {
    std::string payload;
    std::vector<std::string> sites;
    Payload run;
    std::string artifact;
    bool refusable;
  };
  const Writer writers[] = {
      {"sweep",
       {"engine.job", "journal.write", "journal.sync", "journal.rename"},
       run_sweep, "sweep.jsonl", false},
      {"tracegen", {"trs.write", "trs.sync"}, run_trs, "torture.trs", true},
      {"csv", {"csv.write", "csv.sync", "csv.rename"}, run_csv,
       "torture.csv", false},
      {"stats", {"stats.write", "stats.sync", "stats.rename"}, run_stats,
       "torture_stats.json", false},
      {"trace", {"trace.write", "trace.sync", "trace.rename"}, run_trace,
       "torture.txt", false},
  };
  // Injected engine.job failures must retry to a clean completion.
  const SweepParams crash_knobs{.jobs = sweep_jobs(false), .max_retries = 2};
  for (const Writer& w : writers) {
    const bool sweep = w.payload == "sweep";
    for (const std::string& site : w.sites) {
      for (const std::string action :
           {"crash", "error:ENOSPC", "short-write"}) {
        if (action == "short-write" && !site.ends_with(".write")) continue;
        // A transient job failure is retried to a byte-identical
        // completion -- not an exit at all -- so there is nothing to
        // resume; every other sweep fault is followed by --resume.
        const bool retried = site == "engine.job" && action != "crash";
        const Expect expect = action == "crash" ? Expect::kCrash
                              : retried         ? Expect::kClean
                                                : Expect::kFail;
        cases.push_back({"crash", w.payload, site,
                         site + "=" + action + "@{k}", w.run,
                         sweep ? crash_knobs : SweepParams{}, expect,
                         sweep && !retried, w.artifact, w.refusable});
      }
    }
  }

  const std::vector<exec::Job> chaos_jobs = sweep_jobs(true);
  const auto chaos = [&](std::string name, std::string spec,
                         SweepParams knobs, Expect expect, bool resume) {
    knobs.jobs = chaos_jobs;
    cases.push_back({"chaos", "sweep", std::move(name), std::move(spec),
                     run_sweep, std::move(knobs), expect, resume,
                     "sweep.jsonl", false});
  };
  // A delayed job changes nothing but wall clock.
  chaos("delay", "engine.job=delay:5@{job}", {}, Expect::kClean, false);
  // A transient job error is retried to a byte-identical completion.
  chaos("transient", "engine.job=error:EIO@{job}", {.max_retries = 2},
        Expect::kClean, false);
  // Composed schedule: a delay and a transient error in one run.
  chaos("compose", "engine.job=delay:5@{job};engine.job=error:EIO@{job2}",
        {.max_retries = 2}, Expect::kClean, false);
  // A torn journal write fails the sweep loudly; --resume restores it.
  chaos("short-write", "journal.write=short-write@{journal}", {},
        Expect::kFail, true);
  // A hung job is cancelled by the watchdog and quarantined; the sweep
  // completes without it and --resume re-attempts only that job.
  chaos("hang", "engine.job=hang@{job}", {.job_timeout_ms = 250},
        Expect::kQuarantine, true);
  // An escalating SIGINT storm: graceful interrupt, then default
  // disposition, possibly death mid-write; --resume restores.
  chaos("sigstorm", "", {.signal_storm = true}, Expect::kStorm, true);
  return cases;
}

/// `c.spec` with its trigger placeholders replaced by seeded 1-based
/// indices into the reference run's hit counts, so --seeds N probes N
/// trigger points per case:
///   {k}        the crash case's own site, picked by "<site>|<action>";
///   {job}      engine.job, picked by "<case>|job";
///   {job2}     a second engine.job index, distinct from {job};
///   {journal}  journal.write, picked by "<case>|journal".
/// Sets `why` when a placeholder's site was never evaluated.
std::string expand(const Case& c, u64 seed,
                   const std::map<std::string, u64>& hits, std::string& why) {
  std::string spec = c.spec;
  const usize eq = spec.find('=');  // a crash template: <site>=<action>@{k}
  const std::string action =
      eq == std::string::npos ? ""
                              : spec.substr(eq + 1, spec.find('@') - eq - 1);
  u64 job = 0;
  const auto fill = [&](std::string_view token, const std::string& site,
                        const std::string& label) {
    const usize at = spec.find(token);
    if (at == std::string::npos || !why.empty()) return;
    const auto it = hits.find(site);
    if (it == hits.end() || it->second == 0) {
      why = "site " + site + " never evaluated by the reference run";
      return;
    }
    const u64 k = token == "{job2}"
                      ? 1 + job % it->second
                      : harness::pick_index(label, seed, it->second);
    if (token == "{job}") job = k;
    spec.replace(at, token.size(), std::to_string(k));
  };
  fill("{k}", c.name, c.name + "|" + action);
  fill("{job}", "engine.job", c.name + "|job");
  fill("{job2}", "engine.job", "");
  fill("{journal}", "journal.write", c.name + "|journal");
  return spec;
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

/// Why the armed child's end breaks the case's contract ("" if it holds).
std::string check_exit(const Case& c, const ChildStatus& st,
                       const std::string& dir) {
  if (st.killed_backstop) return "hung: child blew the wall-clock bound";
  const bool exited = st.term_signal == 0;
  switch (c.expect) {
    case Expect::kCrash:
      return st.term_signal == SIGKILL
                 ? ""
                 : "armed crash did not SIGKILL the child";
    case Expect::kClean:
      return exited && st.exit_code == 0
                 ? ""
                 : "fault was not absorbed: the child did not exit 0";
    case Expect::kFail:
      return exited && st.exit_code != 0
                 ? ""
                 : "injected fault did not fail gracefully";
    case Expect::kQuarantine: {
      if (!exited || st.exit_code != exec::kExitQuarantine) {
        return "hang did not exit kExitQuarantine";
      }
      const u64 q = count_quarantined(slurp(dir + "/" + c.artifact));
      return q == 1 ? ""
                    : "expected exactly 1 quarantined row, found " +
                          std::to_string(q);
    }
    case Expect::kStorm:
      if (!exited) {
        return st.term_signal == SIGINT
                   ? ""
                   : "storm killed the child with an unexpected signal";
      }
      return st.exit_code == 0 || st.exit_code == 130
                 ? ""
                 : "storm produced an unexpected exit code";
  }
  return "";
}

/// Why the artifact breaks the contract ("" if it holds): it is absent
/// (allowed unless the run ended clean or was resumed), byte-equal to the
/// reference, or -- for chunked traces -- refused by the reader. Never
/// readable but wrong.
std::string check_artifact(const Case& c, const std::string& path,
                           const std::string& ref_bytes) {
  if (!fsys::exists(path)) {
    return c.expect == Expect::kClean || c.resume ? "artifact missing" : "";
  }
  if (slurp(path) == ref_bytes || (c.refusable && trs_refused(path))) {
    return "";
  }
  return "artifact is readable but differs from the reference";
}

void fresh_dir(const std::string& dir) {
  std::error_code ec;
  fsys::remove_all(dir, ec);
  fsys::create_directories(dir, ec);
}

bool failed(const ChildStatus& st) {
  return st.killed_backstop || st.term_signal != 0 || st.exit_code != 0;
}

#if defined(__unix__)

/// A payload's clean run: its artifact bytes and per-site hit counts.
struct Reference {
  bool ok = false;
  std::map<std::string, u64> hits;
  std::string bytes;
};

Reference reference_run(const Case& c, const std::string& dir) {
  fresh_dir(dir);
  const std::string report = dir + "/failpoint_report.txt";
  const ChildStatus st = harness::run_child(
      [&] { return c.run(dir, {.jobs = c.knobs.jobs}); }, "", report,
      dir + "/err.txt");
  Reference ref;
  ref.hits = harness::read_report(report);
  ref.bytes = slurp(dir + "/" + c.artifact);
  ref.ok = !failed(st) && !ref.bytes.empty();
  return ref;
}

/// Run one armed case in `dir` and check its contract ("" if it holds).
std::string run_case(const Case& c, const std::string& spec,
                     const std::string& dir, const std::string& ref_bytes) {
  fresh_dir(dir);
  const ChildStatus st = harness::run_child(
      [&] { return c.run(dir, c.knobs); }, spec, "", dir + "/err.txt");
  if (std::string why = check_exit(c, st, dir); !why.empty()) return why;
  // Recovery: a clean --resume run must complete and restore the journal
  // from whatever the fault left behind.
  if (c.resume &&
      failed(harness::run_child(
          [&] { return c.run(dir, {.jobs = c.knobs.jobs, .resume = true}); },
          "", "", dir + "/err_resume.txt"))) {
    return "--resume recovery run failed";
  }
  return check_artifact(c, dir + "/" + c.artifact, ref_bytes);
}

#endif  // defined(__unix__)

struct Options {
  std::string out = "cnt_torture_out";
  u64 seeds = 1;
  std::string family;  ///< empty: both families
  std::string only;    ///< empty: every case
  bool keep = false;
  bool list = false;
};

}  // namespace

int main(int argc, char** argv) {
#if !defined(__unix__)
  std::cerr << "cnt-torture: requires fork/waitpid (unix only)\n";
  return 2;
#else
  Options opt;
  cli::Parser cli("cnt-torture", "Run the crash and chaos torture wall.");
  cli.flag(&opt.out, "--out", "working directory", {.value = "DIR"})
      .flag(&opt.seeds, "--seeds", "trigger points per case (default 1)",
            {.min = 1})
      .flag(&opt.family, "--family", "run only one family",
            {.choices = {"crash", "chaos"}})
      .flag(&opt.only, "--case", "run only one case", {.value = "NAME"})
      .flag(&opt.keep, "--keep", "keep per-case directories")
      .flag(&opt.list, "--list", "print the case catalog and exit");
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  std::vector<Case> cases = catalog();
  std::erase_if(cases, [&](const Case& c) {
    return (!opt.family.empty() && c.family != opt.family) ||
           (!opt.only.empty() && c.name != opt.only);
  });
  if (cases.empty()) {
    std::cerr << "cnt-torture: no case matches '" << opt.only
              << "' (see --list)\n";
    return 2;
  }
  if (opt.list) {
    std::string last;
    for (const Case& c : cases) {
      const std::string entry = c.family + " " + c.name;
      if (entry != last) std::cout << entry << "\n";
      last = entry;
    }
    return 0;
  }

  std::error_code ec;
  fsys::create_directories(opt.out, ec);
  if (ec) {
    std::cerr << "cnt-torture: cannot create " << opt.out << ": "
              << ec.message() << "\n";
    return 2;
  }

  std::map<std::string, Reference> refs;  // by family/payload
  std::map<std::string, std::pair<u64, u64>> tally;  // family: held, run
  u64 n = 0;
  for (const Case& c : cases) {
    const std::string key = c.family + "/" + c.payload;
    auto ref = refs.find(key);
    if (ref == refs.end()) {
      const std::string dir = opt.out + "/ref_" + c.family + "_" + c.payload;
      ref = refs.emplace(key, reference_run(c, dir)).first;
      if (!ref->second.ok) {
        std::cout << "FAIL " << key << "/reference: clean run did not exit 0"
                  << " with an artifact\n";
      }
      if (!opt.keep) fsys::remove_all(dir, ec);
    }
    for (u64 seed = 0; seed < opt.seeds; ++seed) {
      std::string why = ref->second.ok ? "" : "no clean reference run";
      const std::string spec =
          why.empty() ? expand(c, seed, ref->second.hits, why) : c.spec;
      const std::string label = c.family + "/" + c.name + "/seed" +
                                std::to_string(seed) +
                                (spec.empty() ? "" : " [" + spec + "]");
      const std::string dir = opt.out + "/case_" + std::to_string(++n);
      if (why.empty()) why = run_case(c, spec, dir, ref->second.bytes);
      auto& [held, run] = tally[c.family];
      ++run;
      if (why.empty()) {
        ++held;
        std::cout << "ok   " << label << "\n";
      } else {
        std::cout << "FAIL " << label << ": " << why << "\n";
      }
      if (!opt.keep) fsys::remove_all(dir, ec);
    }
  }

  int status = 0;
  for (const char* family : {"crash", "chaos"}) {
    const auto it = tally.find(family);
    if (it == tally.end()) continue;
    const auto [held, run] = it->second;
    std::cout << family << ": " << held << "/" << run << " cases hold\n";
    if (held != run) status = 1;
  }
  return status;
#endif  // defined(__unix__)
}
