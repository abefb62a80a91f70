// perfbench -- the repository benchmark's measurement binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--tiny]
//
// Generates the named workload's inputs from the seed, measures it for S
// host seconds through the simulator's public entry points, checks its
// simulated outputs, and prints one JSON line: the metrics (name, value,
// unit), attempted/failed operation counts, the output digest and the run
// record. perfbench/run.py builds this binary, compares the digest against
// the recorded one and formats the benchmark's result line.
//
// Exit codes: 0 measured and correct; 1 an output check failed; 2 the
// environment or the build is unfit for measurement (nothing is printed
// on stdout).
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "trace/stream/format.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--tiny]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--tiny") {
        o.tiny = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known |= n == o.workload;
  if (!known) usage("unknown workload " + o.workload);
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Why this process must not produce numbers, or "" when it may.
std::string unfit_environment() {
  if (cnt::fp::enabled()) return "failpoints are armed (CNT_FAILPOINTS)";
  for (const char* var : {"CNT_JOB_TIMEOUT_MS", "CNT_JOBS", "CNT_RETRIES"}) {
    if (std::getenv(var) != nullptr) {
      return std::string(var) + " is set and would override the engine";
    }
  }
#if !defined(__OPTIMIZE__)
  return "the build is unoptimised";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build is sanitised";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "the build is sanitised";
#endif
#endif
  return "";
}

void print(const Options& o, const perfbench::RunReport& r) {
  cnt::JsonWriter w(std::cout, /*indent=*/0);
  w.begin_object();
  w.kv("workload", o.workload);
  w.kv("correct", r.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.kv("digest", r.digest);
  w.key("metrics").begin_object();
  for (const auto& [name, v] : r.metrics.entries()) {
    w.key(name).begin_object();
    w.kv("value", v.first);
    w.kv("unit", v.second);
    w.end_object();
  }
  w.end_object();
  w.key("problems").begin_array();
  for (const std::string& p : r.problems) w.value(p);
  w.end_array();
  w.key("record").begin_object();
  w.kv("seed", o.seed);
  w.kv("seconds", o.seconds);
  w.kv("trace", o.trace);
  w.kv("size", o.tiny ? "tiny" : "full");
  w.kv("nproc", static_cast<cnt::u64>(std::thread::hardware_concurrency()));
  w.kv("workers", static_cast<cnt::u64>(r.workers));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("compiler", __VERSION__);
  w.kv("chunk_capacity",
       static_cast<cnt::u64>(cnt::stream::kDefaultChunkCapacity));
  w.kv("accesses_per_unit", r.accesses_per_unit);
  w.kv("jobs_per_unit", r.jobs_per_unit);
  w.kv("units", r.units);
  w.end_object();
  w.end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const std::string unfit = unfit_environment();
  if (!unfit.empty()) {
    std::cerr << "perfbench: refusing to measure: " << unfit << "\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(opts.work_dir);
    const perfbench::RunReport report = perfbench::run_workload(opts);
    for (const std::string& p : report.problems) {
      std::cerr << "perfbench: " << opts.workload << ": " << p << "\n";
    }
    print(opts, report);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}
