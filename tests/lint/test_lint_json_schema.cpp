// Golden-schema pin for cnt-lint's machine-readable surface (ctest
// label: lint). scripts/check_all.sh and external CI parse
// --format=json output and key off rule ids, so this suite freezes the
// JSON field names, the R1..R13 catalog, and the finding sort order. A
// failure here means a consumer-visible contract changed: bump the
// schema string and update every consumer, or revert.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver.hpp"

namespace cnt::lint {
namespace {

TEST(LintSchema, JsonFieldNamesArePinned) {
  LintReport report;
  report.files_scanned = 2;
  report.findings.push_back(
      Finding{"a.cpp", 3, "R8", "include-layering", "msg"});
  report.errors.push_back("oops");
  std::ostringstream os;
  write_json(report, os);
  const std::string json = os.str();
  for (const char* needle :
       {"\"schema\":\"cnt-lint-v1\"", "\"files_scanned\":2", "\"count\":1",
        "\"findings\":[", "\"file\":\"a.cpp\"", "\"line\":3",
        "\"rule\":\"R8\"", "\"name\":\"include-layering\"",
        "\"message\":\"msg\"", "\"errors\":[\"oops\"]"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "JSON lost pinned field " << needle << "\n"
        << json;
  }
}

TEST(LintSchema, RuleCatalogIsPinned) {
  const std::vector<RuleInfo>& catalog = rule_catalog();
  // Ids are never renumbered; the retired id between R10 and R12 stays
  // unused.
  const std::vector<std::string> want = {"R1", "R2",  "R3",  "R4",
                                         "R5", "R6",  "R7",  "R8",
                                         "R9", "R10", "R12", "R13"};
  ASSERT_EQ(catalog.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(catalog[i].id, want[i]);
    EXPECT_NE(std::string(catalog[i].name), "");
    EXPECT_NE(std::string(catalog[i].suppression), "");
    EXPECT_NE(std::string(catalog[i].summary), "");
  }
}

TEST(LintSchema, SuppressionTagsAreUnique) {
  // The audit maps tag -> rule; two rules sharing a tag would make it
  // ambiguous which finding a marker silences.
  std::vector<std::string> tags;
  for (const RuleInfo& r : rule_catalog()) tags.emplace_back(r.suppression);
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(std::adjacent_find(tags.begin(), tags.end()), tags.end());
}

TEST(LintSchema, FindingsAreSortedAndStable) {
  LintOptions opts;
  opts.paths = {std::string(CNT_LINT_FIXTURE_DIR)};
  const LintReport a = run_lint(opts);
  const LintReport b = run_lint(opts);
  ASSERT_FALSE(a.findings.empty());
  EXPECT_TRUE(std::is_sorted(a.findings.begin(), a.findings.end()));
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].path, b.findings[i].path);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
  }
}

}  // namespace
}  // namespace cnt::lint
