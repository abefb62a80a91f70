// The one command line (common/cli.hpp): the parser's contract, then a
// table that runs every binary in bench/, examples/ and tools/ with an
// unknown flag, --help, a malformed number and the regressions the strict
// parser closed -- checking the exit status, the message and that nothing
// was written.
#include "common/cli.hpp"

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/options.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

/// Run `parser` over `args` (argv[0] added); captures both streams.
struct Parsed {
  std::optional<int> rc;
  std::string out, err;
};

Parsed run(const cli::Parser& parser, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  std::ostringstream out, err;
  Parsed r;
  r.rc = parser.parse(static_cast<int>(args.size()), args.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

/// The engine knobs every sweep binary declares.
struct EngineFlags {
  usize jobs = 0;
  bool resume = exec::resume_from_env(false);
  std::optional<u64> seed;
  cli::Parser parser{"prog", "test parser"};

  EngineFlags() {
    parser.flag(&jobs, "--jobs", "workers", {.alias = "-j", .min = 1})
        .flag(&resume, "--resume", "resume", {.negation = "--no-resume"})
        .flag(&seed, "--seed", "seed");
  }
};

TEST(CliNumbers, U64IsDigitsOnlyAndFitsSixtyFourBits) {
  EXPECT_EQ(cli::parse_u64("0"), 0u);
  EXPECT_EQ(cli::parse_u64("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12abc", "0x10", "1.0",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(cli::parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CliNumbers, DoubleIsTheWholeTextAndFinite) {
  EXPECT_EQ(cli::parse_double("0.05"), 0.05);
  EXPECT_EQ(cli::parse_double("1e-2"), 0.01);
  EXPECT_EQ(cli::parse_double("-2"), -2.0);
  for (const char* bad :
       {"", "abc", "0.05x", "1e-2 ", " 1", "inf", "-inf", "nan", "1e999"}) {
    EXPECT_FALSE(cli::parse_double(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CliParser, JobsAcceptsEverySpelling) {
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--jobs", "5"}, {"--jobs=5"}, {"-j", "5"}}) {
    EngineFlags f;
    EXPECT_EQ(run(f.parser, args).rc, std::nullopt) << args[0];
    EXPECT_EQ(f.jobs, 5u) << args[0];
  }
}

TEST(CliParser, FlagBeatsEnvironment) {
  setenv("CNT_JOBS", "9", 1);
  setenv("CNT_RESUME", "1", 1);
  {
    EngineFlags f;  // no flags: the environment decides
    ASSERT_EQ(run(f.parser, {}).rc, std::nullopt);
    EXPECT_EQ(exec::resolve_jobs(f.jobs), 9u);
    EXPECT_TRUE(f.resume);
  }
  {
    EngineFlags f;
    ASSERT_EQ(run(f.parser, {"--jobs", "5", "--no-resume"}).rc, std::nullopt);
    EXPECT_EQ(exec::resolve_jobs(f.jobs), 5u);
    EXPECT_FALSE(f.resume);
  }
  unsetenv("CNT_JOBS");
  unsetenv("CNT_RESUME");
}

TEST(CliParser, LastResumeFlagWins) {
  EngineFlags a;
  ASSERT_EQ(run(a.parser, {"--resume", "--no-resume"}).rc, std::nullopt);
  EXPECT_FALSE(a.resume);
  EngineFlags b;
  ASSERT_EQ(run(b.parser, {"--no-resume", "--resume"}).rc, std::nullopt);
  EXPECT_TRUE(b.resume);
}

TEST(CliParser, OverflowAndMalformedNumbersAreRefused) {
  EngineFlags ok;
  ASSERT_EQ(run(ok.parser, {"--seed=18446744073709551615"}).rc, std::nullopt);
  EXPECT_EQ(ok.seed, 18446744073709551615u);
  EngineFlags zero;
  ASSERT_EQ(run(zero.parser, {"--seed", "0"}).rc, std::nullopt);
  EXPECT_EQ(zero.seed, 0u);  // 0 is a seed, not "unset"
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--seed", "18446744073709551616"},
        {"--seed=99999999999999999999"}, {"--seed", "abc"}, {"--seed", "-1"},
        {"--jobs", "0"}, {"--jobs", "4x"}, {"--jobs="}}) {
    EngineFlags f;
    const Parsed r = run(f.parser, args);
    EXPECT_EQ(r.rc, 2) << args[0];
    EXPECT_NE(r.err.find("wants a whole number"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("usage: prog"), std::string::npos) << r.err;
    EXPECT_FALSE(f.seed.has_value());
  }
}

TEST(CliParser, UsageErrorsNameTheOffender) {
  const std::vector<std::pair<std::vector<const char*>, const char*>> cases = {
      {{"--josnl", "x"}, "unknown option '--josnl'"},
      {{"--jobs"}, "option '--jobs' needs a value"},
      {{"--resume=yes"}, "option '--resume' takes no value"},
      {{"-x"}, "unknown option '-x'"},
      {{"extra"}, "unexpected argument 'extra'"},
  };
  for (const auto& [args, want] : cases) {
    EngineFlags f;
    const Parsed r = run(f.parser, args);
    EXPECT_EQ(r.rc, 2) << want;
    EXPECT_EQ(r.err.substr(0, r.err.find('\n')), std::string("prog: ") + want);
    EXPECT_TRUE(r.out.empty());
  }
}

TEST(CliParser, HelpGoesToStdoutAndExitsZero) {
  EngineFlags f;
  const Parsed r = run(f.parser, {"--jobs", "3", "--help"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_TRUE(r.err.empty());
  EXPECT_EQ(r.out.rfind("usage: prog [options]\n", 0), 0u) << r.out;
  for (const char* line : {"-j, --jobs N", "--resume, --no-resume",
                           "--seed N", "-h, --help", "test parser"}) {
    EXPECT_NE(r.out.find(line), std::string::npos) << line << "\n" << r.out;
  }
}

TEST(CliParser, PositionalsFillInOrder) {
  std::string base, target = "suite";
  std::optional<double> scale;
  cli::Parser p("prog", "positionals");
  p.positional(&base, "base", "b", {.required = true})
      .positional(&target, "workload", "w")
      .positional(&scale, "scale", "s");

  EXPECT_EQ(run(p, {"-"}).rc, std::nullopt);  // a lone dash is a value
  EXPECT_EQ(base, "-");
  EXPECT_EQ(target, "suite");
  EXPECT_FALSE(scale.has_value());

  EXPECT_EQ(run(p, {"a.ini", "zipf_kv", "0.5"}).rc, std::nullopt);
  EXPECT_EQ(target, "zipf_kv");
  EXPECT_EQ(scale, 0.5);

  EXPECT_EQ(run(p, {}).err.substr(0, 20), "prog: missing <base>");
  const Parsed junk = run(p, {"a.ini", "zipf_kv", "0.05x"});
  EXPECT_EQ(junk.rc, 2);
  EXPECT_NE(junk.err.find("scale wants a finite number, not '0.05x'"),
            std::string::npos)
      << junk.err;
  EXPECT_EQ(run(p, {"a", "b", "1", "extra"}).rc, 2);
  EXPECT_EQ(run(p, {}).out, "");
  EXPECT_NE(run(p, {"-h"}).out.find("usage: prog [options] <base> [workload] "
                                    "[scale]"),
            std::string::npos);
}

TEST(CliParser, ChoicesRepeatsAndTheRest) {
  std::vector<std::string> names, rules;
  std::string format = "text";
  cli::Parser p("prog", "choices");
  p.positional(&names, "figure", "f", {.choices = {"fig_a", "fig_b"}})
      .flag(&rules, "--rule", "r", {.choices = {"R1", "R2"}})
      .flag(&format, "--format", "f", {.choices = {"text", "json"}});
  EXPECT_EQ(run(p, {"fig_b", "--rule=R2", "fig_a", "--rule", "R1",
                    "--format=json"})
                .rc,
            std::nullopt);
  EXPECT_EQ(names, (std::vector<std::string>{"fig_b", "fig_a"}));
  EXPECT_EQ(rules, (std::vector<std::string>{"R2", "R1"}));
  EXPECT_EQ(format, "json");

  const Parsed fig = run(p, {"no_such"});
  EXPECT_EQ(fig.rc, 2);
  EXPECT_EQ(fig.err.substr(0, fig.err.find('\n')),
            "prog: unknown figure 'no_such'; one of: fig_a, fig_b");
  EXPECT_NE(run(p, {"--format", "xml"}).err.find("unknown format 'xml'"),
            std::string::npos);
  EXPECT_EQ(run(p, {"--rule", "R9"}).rc, 2);
}

TEST(CliParser, StandaloneFlagWaivesThePositionals) {
  std::string out;
  bool list = false;
  cli::Parser p("prog", "standalone");
  p.positional(&out, "out", "o", {.required = true})
      .flag(&list, "--list", "l", {.standalone = true});
  EXPECT_NE(run(p, {}).err.find("prog: missing <out>"), std::string::npos);
  EXPECT_EQ(run(p, {"--list"}).rc, std::nullopt);
  EXPECT_TRUE(list);
}

// ---------------------------------------------------------------------------
// Every binary, end to end.

struct Row {
  std::string label;  ///< test name suffix
  std::string exe;    ///< path under the build tree
  std::vector<std::string> args;
  int rc;
  std::string out_has;  ///< substring of stdout ("" = anything)
  std::string err_has;  ///< substring of stderr ("" = anything)
  /// Written beside the run directory and passed as the first argument
  /// ("" = no file).
  std::string ini;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.label; }

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `s` as one single-quoted shell word.
std::string quoted(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  return q + "'";
}

const std::vector<std::string>& binaries() {
  static const std::vector<std::string> kAll = {
      "bench/bench_figures",         "examples/cnt_sim",
      "examples/cnt_sweep",          "examples/dcache_workloads",
      "examples/device_explorer",    "examples/encoding_explorer",
      "examples/hierarchy_demo",     "examples/kernel_capture",
      "examples/quickstart",         "examples/trace_tool",
      "tools/cnt-fuzz/cnt-fuzz",     "tools/cnt-lint/cnt-lint",
      "tools/cnt-torture/cnt-torture",
      "tools/cnt-tracegen/cnt_tracegen"};
  return kAll;
}

std::string program_of(const std::string& exe) {
  return exe.substr(exe.rfind('/') + 1);
}

/// A number the binary parses, spelled wrong; for the binaries that take
/// no number, a bad choice (cnt-lint) or one argument too many.
std::vector<std::string> malformed(const std::string& program) {
  if (program == "bench_figures") return {"--jobs", "abc"};
  if (program == "cnt_sim") return {"none.ini", "zipf_kv", "0.05x"};
  if (program == "cnt_sweep") {
    return {"-", "cnt.window", "3", "zipf_kv", "0.02x", "--jsonl", "x.jsonl"};
  }
  if (program == "dcache_workloads") return {"0.02", "abc"};
  if (program == "device_explorer") return {"4x"};
  if (program == "hierarchy_demo") return {"0.05x"};
  if (program == "quickstart") return {"zipf_kv", "0.05x"};
  if (program == "trace_tool") return {"info", "x.trs", "extra"};
  if (program == "cnt-fuzz") return {"--corpus-root", ".", "--runs", "1x"};
  if (program == "cnt-lint") return {"--format=xml", "."};
  if (program == "cnt-torture") return {"--seeds", "3x", "--out", "wall"};
  if (program == "cnt_tracegen") {
    return {"srv_steady", "x.trs", "--ops", "12abc"};
  }
  return {"3"};  // encoding_explorer, kernel_capture
}

std::vector<Row> rows() {
  std::vector<Row> out;
  for (const std::string& exe : binaries()) {
    const std::string prog = program_of(exe);
    std::string label = prog;
    for (char& c : label) {
      if (c == '-') c = '_';
    }
    out.push_back({label + "_bogus", exe, {"--bogus"}, 2, "",
                   prog + ": unknown option '--bogus'"});
    out.push_back({label + "_help", exe, {"--help"}, 0, "usage: " + prog, ""});
    out.push_back({label + "_malformed", exe, malformed(prog), 2, "",
                   "usage: " + prog});
  }
  // Inputs that used to run with a wrong value, abort, or drop a flag.
  out.push_back({"dcache_workloads_atoi_window", "examples/dcache_workloads",
                 {"0.02", "abc"}, 2, "",
                 "window wants a whole number, not 'abc'"});
  out.push_back({"dcache_workloads_zero_window", "examples/dcache_workloads",
                 {"0.05", "0"}, 1, "", "cnt.window"});
  out.push_back({"bench_figures_samples_junk", "bench/bench_figures",
                 {"fig_variation", "--samples", "abc"}, 2, "",
                 "--samples wants a whole number >= 1, not 'abc'"});
  out.push_back({"bench_figures_samples_zero", "bench/bench_figures",
                 {"fig_variation", "--samples", "0"}, 2, "", "--samples"});
  out.push_back({"cnt_fuzz_seed_junk", "tools/cnt-fuzz/cnt-fuzz",
                 {"--corpus-root", ".", "--seed", "abc"}, 2, "",
                 "--seed wants a whole number, not 'abc'"});
  out.push_back({"cnt_sweep_misspelt_jsonl", "examples/cnt_sweep",
                 {"-", "cnt.window", "3", "zipf_kv", "0.02", "--josnl",
                  "x.jsonl"},
                 2, "", "unknown option '--josnl'"});
  out.push_back({"cnt_sweep_misspelt_key", "examples/cnt_sweep",
                 {"-", "cnt.windw", "3,15", "stream_copy", "0.02"}, 2, "",
                 "cnt_sweep: unknown config key 'cnt.windw' (did you mean "
                 "'cnt.window'?)"});
  out.push_back({"cnt_sweep_policies_key", "examples/cnt_sweep",
                 {"-", "policies.cmos", "true", "stream_copy", "0.02"}, 2, "",
                 "cannot sweep 'policies.cmos'"});
  out.push_back({"cnt_sweep_base_unknown_key", "examples/cnt_sweep",
                 {"cnt.window", "3", "stream_copy", "0.02"}, 0,
                 "sweep over cnt.window",
                 "warning: unknown config key 'cnt.windw' (did you mean "
                 "'cnt.window'?)",
                 "[cnt]\nwindw = 7\n"});
  out.push_back({"cnt_sim_u32_would_wrap", "examples/cnt_sim",
                 {"zipf_kv", "0.02"}, 1, "",
                 "key 'cache.idle_per_miss' has out-of-range value "
                 "'4294967297'",
                 "[cache]\nidle_per_miss = 4294967297\n"});
  out.push_back({"cnt_sweep_jobs_zero", "examples/cnt_sweep",
                 {"-", "cnt.window", "3", "zipf_kv", "0.02", "--jobs", "0"},
                 2, "", "--jobs wants a whole number >= 1"});
  out.push_back({"quickstart_scale_junk", "examples/quickstart",
                 {"zipf_kv", "0.05x"}, 2, "",
                 "scale wants a finite number, not '0.05x'"});
  out.push_back({"trace_tool_gen_retired", "examples/trace_tool",
                 {"gen", "zipf_kv", "x.txt", "0.05"}, 2, "",
                 "unknown command 'gen'"});
  out.push_back({"cnt_sim_partitions_not_dividing_line", "examples/cnt_sim",
                 {"zipf_kv", "0.02"}, 1, "",
                 "key 'cnt.partitions' has out-of-range value '3' for a 64 B "
                 "line",
                 "[cnt]\npartitions = 3\n"});
  return out;
}

class CliBinary : public ::testing::TestWithParam<Row> {};

TEST_P(CliBinary, ExitStatusMessageAndNoFileWritten) {
  const Row& row = GetParam();
  const test::ScratchDir dir;
  const std::filesystem::path cwd = dir.path() / "run";
  std::filesystem::create_directories(cwd);
  std::ostringstream cmd;
  cmd << "cd " << quoted(cwd.string()) << " && env -u CNT_RESULTS_DIR "
      << quoted(std::string(CNT_BUILD_DIR) + "/" + row.exe);
  if (!row.ini.empty()) {
    std::ofstream(dir / "run.ini") << row.ini;  // cnt-lint: io-ok test input
    cmd << ' ' << quoted(dir / "run.ini");
  }
  for (const auto& a : row.args) cmd << ' ' << quoted(a);
  cmd << " >" << quoted(dir / "out") << " 2>" << quoted(dir / "err");
  const int status = std::system(cmd.str().c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd.str();
  const std::string out = slurp(dir / "out"), err = slurp(dir / "err");
  EXPECT_EQ(WEXITSTATUS(status), row.rc) << cmd.str() << "\nstderr:\n" << err;
  EXPECT_NE(out.find(row.out_has), std::string::npos) << out;
  // A refused run prints nothing to stdout -- no header before the error.
  if (row.rc != 0) {
    EXPECT_EQ(out, "") << cmd.str();
  }
  EXPECT_NE(err.find(row.err_has), std::string::npos) << err;
  EXPECT_TRUE(std::filesystem::is_empty(cwd)) << cmd.str() << " wrote a file";
}

INSTANTIATE_TEST_SUITE_P(
    Table, CliBinary, ::testing::ValuesIn(rows()),
    [](const ::testing::TestParamInfo<Row>& p) { return p.param.label; });

}  // namespace
}  // namespace cnt
