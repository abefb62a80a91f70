// Fixture suite for the cnt-lint rule engine (ctest label: lint).
//
// Each rule R1-R13 has one fixture under tests/lint/fixtures/ holding
// exactly ONE unsuppressed violation plus ONE suppressed twin. The suite
// asserts (a) the violation is flagged exactly once, (b) stripping the
// `cnt-lint:` suppression markers doubles the count -- proving the
// suppression comment is load-bearing, not vacuous -- and (c) assorted
// lexer/rule edge cases on inline buffers.
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "driver.hpp"

namespace cnt::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(CNT_LINT_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Disable every suppression comment in the buffer while keeping line
/// numbers and the rest of the file byte-identical. guarded-by(...) is an
/// annotation, not a suppression: it stays, so R9 still has a guard to
/// enforce after stripping.
std::string strip_suppressions(std::string content) {
  const std::string marker = "cnt-lint:";
  const std::string dummy = "cnt-nope:";
  std::size_t pos = 0;
  while ((pos = content.find(marker, pos)) != std::string::npos) {
    if (content.compare(pos + marker.size(), 12, " guarded-by(") == 0) {
      pos += marker.size();
      continue;
    }
    content.replace(pos, marker.size(), dummy);
    pos += dummy.size();
  }
  return content;
}

struct FixtureCase {
  const char* file;
  const char* rule;
};

/// Print the fixture path, not the raw struct: gtest's default dumps the
/// two pointers' bytes, which puts load addresses into every test id.
void PrintTo(const FixtureCase& c, std::ostream* os) { *os << c.file; }

class LintFixture : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixture, FlagsExactlyOnce) {
  const auto [file, rule] = GetParam();
  const std::string content = slurp(fixture_path(file));
  ASSERT_FALSE(content.empty());

  const auto findings = lint_buffer(file, content);
  ASSERT_EQ(findings.size(), 1u)
      << "fixture " << file << " must yield exactly one finding";
  EXPECT_EQ(findings[0].rule, rule);
  EXPECT_EQ(findings[0].path, file);
  EXPECT_GT(findings[0].line, 0u);
}

TEST_P(LintFixture, SuppressionIsLoadBearing) {
  const auto [file, rule] = GetParam();
  const auto findings =
      lint_buffer(file, strip_suppressions(slurp(fixture_path(file))));
  ASSERT_EQ(findings.size(), 2u)
      << "fixture " << file
      << " must yield exactly two findings once suppressions are stripped";
  EXPECT_EQ(findings[0].rule, rule);
  EXPECT_EQ(findings[1].rule, rule);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixture,
    ::testing::Values(FixtureCase{"r1_nondet.cpp", "R1"},
                      FixtureCase{"r2_global.cpp", "R2"},
                      FixtureCase{"r3_nodiscard.hpp", "R3"},
                      FixtureCase{"r4_narrow.cpp", "R4"},
                      FixtureCase{"r5_unordered.cpp", "R5"},
                      FixtureCase{"src/common/r6_throw.cpp", "R6"},
                      FixtureCase{"r7_ofstream.cpp", "R7"},
                      FixtureCase{"src/cache/r8_layering.cpp", "R8"},
                      FixtureCase{"src/exec/r9_guard.cpp", "R9"},
                      FixtureCase{"r10_hot.cpp", "R10"},
                      FixtureCase{"r12_wait.cpp", "R12"},
                      FixtureCase{"tests/r13_tempdir.cpp", "R13"}),
    [](const ::testing::TestParamInfo<FixtureCase>& param) {
      return std::string(param.param.rule);
    });

TEST(LintRuleFilter, OnlySelectedRulesRun) {
  const std::string content = slurp(fixture_path("r4_narrow.cpp"));
  EXPECT_TRUE(lint_buffer("f.cpp", content, {"R1"}).empty());
  EXPECT_EQ(lint_buffer("f.cpp", content, {"R4"}).size(), 1u);
}

TEST(LintLexer, CommentsAndStringsNeverTrigger) {
  const std::string snippet =
      "// rand() time(0) system_clock static int g;\n"
      "/* static_cast<u8>(x) random_device */\n"
      "const char* s = \"rand() static int g = 0;\";\n"
      "const char* r = R\"(time(0) unordered_map)\";\n";
  EXPECT_TRUE(lint_buffer("f.cpp", snippet).empty());
}

TEST(LintLexer, SuppressionReachesSameAndNextLineOnly) {
  const std::string two_above =
      "// cnt-lint: global-ok\n"
      "\n"
      "static int g_far = 0;\n";
  EXPECT_EQ(lint_buffer("f.cpp", two_above).size(), 1u);

  const std::string directly_above =
      "// cnt-lint: global-ok\n"
      "static int g_near = 0;\n";
  EXPECT_TRUE(lint_buffer("f.cpp", directly_above).empty());
}

TEST(LintR1, RngModuleIsExempt) {
  const std::string snippet = "int x = rand();\n";
  EXPECT_EQ(lint_buffer("src/exec/engine.cpp", snippet).size(), 1u);
  EXPECT_TRUE(lint_buffer("src/common/rng.cpp", snippet).empty());
  EXPECT_TRUE(lint_buffer("src/common/rng.hpp", snippet).empty());
}

TEST(LintR2, FunctionLocalMutableStaticIsFlagged) {
  const std::string snippet =
      "int id() {\n"
      "  static int next = 0;\n"
      "  return ++next;\n"
      "}\n";
  const auto findings = lint_buffer("f.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R2");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintR3, MultiLineDeclarationIsSeen) {
  // grep-style line tools miss the attribute when the declaration wraps;
  // the token-based rule must not.
  const std::string ok =
      "struct S {\n"
      "  [[nodiscard]] double saving(int opt,\n"
      "                              int base) const;\n"
      "};\n";
  EXPECT_TRUE(lint_buffer("f.hpp", ok).empty());
  const std::string bad =
      "struct S {\n"
      "  double saving(int opt,\n"
      "                int base) const;\n"
      "};\n";
  ASSERT_EQ(lint_buffer("f.hpp", bad).size(), 1u);
}

TEST(LintR4, CStyleAndFunctionalCastsAreBannedOutright) {
  EXPECT_EQ(lint_buffer("f.cpp", "int f(long v) { return (char)v; }\n").size(),
            1u);
  EXPECT_EQ(
      lint_buffer("f.cpp", "long g(long v) { return long(v); }\n").size(), 0u);
  const auto functional =
      lint_buffer("f.cpp", "unsigned char h(long v) { return uint8_t(v); }\n");
  ASSERT_EQ(functional.size(), 1u);
  EXPECT_EQ(functional[0].rule, "R4");
}

TEST(LintR5, UsingAliasIsTracked) {
  const std::string snippet =
      "#include <unordered_map>\n"
      "#include <iostream>\n"
      "using Histogram = std::unordered_map<int, long>;\n"
      "void dump(const Histogram& h) {\n"
      "  for (const auto& kv : h) {\n"
      "    std::cout << kv.first;\n"
      "  }\n"
      "}\n";
  const auto findings = lint_buffer("f.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R5");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LintR13, ScopedToTestsAndExemptsScratchDir) {
  const std::string call = "auto p = ::testing::TempDir();\n";
  EXPECT_EQ(lint_buffer("tests/test_x.cpp", call).size(), 1u);
  EXPECT_EQ(lint_buffer("/abs/repo/tests/sub/test_y.cpp", call).size(), 1u);
  EXPECT_TRUE(lint_buffer("tests/scratch_dir.hpp", call).empty());
  EXPECT_TRUE(lint_buffer("src/common/io.cpp", call).empty());
  EXPECT_TRUE(lint_buffer("mytests/test_x.cpp", call).empty());
}

TEST(LintJson, EscapesAndCounts) {
  LintReport report;
  report.files_scanned = 3;
  report.findings.push_back(
      Finding{"a \"quoted\".cpp", 7, "R1", "nondeterminism", "msg\nline"});
  std::ostringstream os;
  write_json(report, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"cnt-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("a \\\"quoted\\\".cpp"), std::string::npos);
  EXPECT_NE(json.find("msg\\nline"), std::string::npos);
}

}  // namespace
}  // namespace cnt::lint
