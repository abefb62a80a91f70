// Clean-tree invariant (ctest label: lint): cnt-lint over the real
// src/, bench/ and examples/ trees must report ZERO findings. Any new
// violation either gets fixed or carries an explicit, reviewed
// `// cnt-lint: <tag>` suppression -- silent drift is not an option.
#include <gtest/gtest.h>

#include "driver.hpp"
#include "rules.hpp"

namespace cnt::lint {
namespace {

LintReport lint_tree(std::initializer_list<const char*> subdirs) {
  LintOptions opts;
  for (const char* d : subdirs) {
    opts.paths.push_back(std::string(CNT_LINT_SOURCE_ROOT) + "/" + d);
  }
  return run_lint(opts);
}

TEST(LintCleanTree, SrcBenchExamplesHaveZeroFindings) {
  const LintReport report = lint_tree({"src", "bench", "examples"});
  EXPECT_TRUE(report.errors.empty());
  // A broken checkout would vacuously pass with 0 findings; make sure we
  // actually scanned a substantial tree.
  EXPECT_GE(report.files_scanned, 100u);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.path << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
}

TEST(LintCleanTree, TestsAndToolsHaveZeroFindings) {
  LintReport report;
  {
    LintOptions opts;
    opts.paths = {std::string(CNT_LINT_SOURCE_ROOT) + "/tests",
                  std::string(CNT_LINT_SOURCE_ROOT) + "/tools"};
    // The rule fixtures are violations by design.
    opts.excludes = {"tests/lint/fixtures"};
    report = run_lint(opts);
  }
  EXPECT_TRUE(report.errors.empty());
  EXPECT_GE(report.files_scanned, 30u);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.path << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
}

TEST(LintCleanTree, FixtureDirectoryIsNotClean) {
  // Sanity-check the exclusion above: without it the fixtures must fire.
  LintOptions opts;
  opts.paths = {std::string(CNT_LINT_SOURCE_ROOT) + "/tests/lint/fixtures"};
  const LintReport report = run_lint(opts);
  // One fixture per catalog rule, each with exactly one finding.
  EXPECT_EQ(report.files_scanned, rule_catalog().size());
  EXPECT_EQ(report.findings.size(), rule_catalog().size());
}

}  // namespace
}  // namespace cnt::lint
