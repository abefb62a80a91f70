// cnt-fuzz: deterministic in-process fuzzing of the ingest parsers.
//
//   $ cnt-fuzz --corpus-root tests/fuzz/corpus --target all --seed 1
//             --runs 2000 --check-corpus
//
// --corpus-root points at tests/fuzz/corpus (each target fuzzes its own
// subdirectory). --check-corpus additionally asserts the corpus contract:
// every seed_* entry is accepted and every bad_* entry is rejected with a
// structured error. Exit status is 0 iff no wall violations (and, with
// --check-corpus, no contract violations) were found; 2 on a usage error.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cnt-fuzz/fuzzer.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"

namespace {

using namespace cnt;
using namespace cnt::fuzz;

struct Options {
  std::string corpus_root;
  std::string target = "all";
  u64 seed = 1;
  u64 runs = 10000;
  bool check_corpus = false;
};

/// Returns the number of contract violations (seed_* rejected or bad_*
/// not structurally rejected).
u64 check_corpus(FuzzTarget t, const std::vector<CorpusEntry>& corpus) {
  u64 violations = 0;
  for (const CorpusEntry& entry : corpus) {
    const FuzzOutcome outcome = classify(t, entry.data);
    const bool ok = entry.expect_bad
                        ? outcome.cls == FuzzOutcome::Cls::kRejected
                        : outcome.cls == FuzzOutcome::Cls::kAccepted;
    if (ok) continue;
    ++violations;
    std::cerr << "corpus violation: " << target_name(t) << '/' << entry.name
              << " expected " << (entry.expect_bad ? "rejected" : "accepted")
              << ", got "
              << (outcome.cls == FuzzOutcome::Cls::kAccepted ? "accepted"
                  : outcome.cls == FuzzOutcome::Cls::kRejected
                      ? "rejected(" + outcome.label + ")"
                      : "CRASH(" + outcome.label + ")")
              << '\n';
  }
  return violations;
}

int run(const Options& opts) {
  std::vector<FuzzTarget> targets;
  if (opts.target == "all") {
    targets.assign(std::begin(kAllTargets), std::end(kAllTargets));
  } else {
    FuzzTarget t{};
    (void)parse_target(opts.target, t);  // the parser checked the name
    targets.push_back(t);
  }

  u64 total_crashes = 0;
  u64 total_violations = 0;
  for (const FuzzTarget t : targets) {
    const std::string dir =
        opts.corpus_root + "/" + std::string(target_name(t));
    const std::vector<CorpusEntry> corpus = load_corpus(dir);
    if (opts.check_corpus) total_violations += check_corpus(t, corpus);
    const FuzzReport report = fuzz_target(t, corpus, opts.seed, opts.runs);
    std::cout << target_name(t) << ": runs=" << report.runs
              << " accepted=" << report.accepted
              << " rejected=" << report.rejected
              << " crashed=" << report.crashed
              << " digest=" << hex_u64(report.digest) << '\n';
    if (report.crashed > 0) {
      std::cerr << "WALL VIOLATION (" << target_name(t)
                << "): " << report.first_crash_what
                << "\n  input: " << report.first_crash_input << '\n';
    }
    total_crashes += report.crashed;
  }
  return total_crashes == 0 && total_violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> names{"all"};
  for (const FuzzTarget t : kAllTargets) names.emplace_back(target_name(t));
  cli::Parser cli("cnt-fuzz", "Fuzz the ingest parsers from a seed corpus.");
  cli.flag(&opts.corpus_root, "--corpus-root", "one subdirectory per target",
           {.value = "DIR"})
      .flag(&opts.target, "--target", "one target, or all (default)",
            {.choices = names})
      .flag(&opts.seed, "--seed", "mutation seed (default 1)")
      .flag(&opts.runs, "--runs", "mutants per target (default 10000)")
      .flag(&opts.check_corpus, "--check-corpus",
            "also check seed_* accepted, bad_* rejected");
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  if (opts.corpus_root.empty()) return cli.usage_error("missing --corpus-root");
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "cnt-fuzz: " << cnt::format_error(e) << '\n';
    return 2;
  }
}
