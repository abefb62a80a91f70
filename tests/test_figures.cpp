// Pins every registered figure (bench/figures.cpp). Each case runs its
// figure through the bench_figures driver at a small scale on two engine
// workers and compares the FNV-1a-64 digest of the CSV bytes with
// tests/golden/figures.json. The digests were recorded from the
// per-figure benchmark mains the registry replaced, so any drift in a
// reproduced table -- a value, a column, its formatting -- fails here.
//
// Regenerating the fixture is a deliberate act: run every figure with
// CNT_BENCH_SCALE and --jobs set to the fixture's "scale" and "jobs",
// then record fnv1a64 of each <name>.csv.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "figures.hpp"
#include "scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace cnt;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const JsonValue& golden() {
  static const JsonValue kGolden = parse_json(
      slurp(CNT_GOLDEN_DIR "/figures.json"), "tests/golden/figures.json");
  return kGolden;
}

std::vector<std::string> figure_names() {
  std::vector<std::string> names;
  for (const bench::Figure& f : bench::registry()) names.push_back(f.name);
  return names;
}

class FigureGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(FigureGolden, CsvMatchesRecordedDigest) {
  const std::string& name = GetParam();
  const bench::Figure* fig = bench::find_figure(name);
  ASSERT_NE(fig, nullptr);

  const test::ScratchDir scratch;
  const fs::path& dir = scratch.path();
  const std::string scale = std::to_string(golden().at("scale").as_double());
  const bench::Invocation inv{.jobs = golden().at("jobs").as_u64(),
                              .scale_text = scale.c_str(),
                              .dir = dir.string()};
  ASSERT_EQ(bench::run_figure(*fig, inv), 0);

  // The figure writes exactly one CSV, named after it, plus the engine's
  // JSONL journal when it runs on the engine.
  std::set<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.insert(entry.path().filename().string());
  }
  std::set<std::string> expected = {name + ".csv"};
  if (fig->specs) expected.insert(name + ".jsonl");
  EXPECT_EQ(files, expected);

  const std::string csv = slurp(dir / (name + ".csv"));
  EXPECT_EQ(hex_u64(fnv1a64(csv)),
            golden().at("fnv1a64").at(name).as_string())
      << "CSV of " << name << ":\n"
      << csv;

  // A --resume rerun over the finished journal replays every job from it
  // and must publish the same bytes.
  bench::Invocation resumed = inv;
  resumed.resume = true;
  ASSERT_EQ(bench::run_figure(*fig, resumed), 0);
  EXPECT_EQ(slurp(dir / (name + ".csv")), csv) << "resumed " << name;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, FigureGolden, ::testing::ValuesIn(figure_names()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return param.param;
    });

TEST(FigureRegistry, NamesAreUniqueAndEachMapsToOneGoldenCsv) {
  std::set<std::string> names;
  for (const bench::Figure& f : bench::registry()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate figure " << f.name;
    EXPECT_FALSE(f.columns.empty()) << f.name;
    EXPECT_TRUE(static_cast<bool>(f.report)) << f.name;
  }
  std::set<std::string> pinned;
  for (const auto& [name, digest] : golden().at("fnv1a64").as_object()) {
    pinned.insert(name);
  }
  EXPECT_EQ(names, pinned);
}

TEST(FigureScale, FinitePositiveTextWins) {
  EXPECT_EQ(bench::scale_from("0.02", 0.35), 0.02);
  EXPECT_EQ(bench::scale_from("2", 0.35), 2.0);
}

TEST(FigureScale, InvalidOrNonFiniteTextFallsBackToTheDefault) {
  EXPECT_EQ(bench::scale_from(nullptr, 0.35), 0.35);
  for (const char* text : {"inf", "nan", "1e999", "-inf", "0", "-1", "abc",
                           "", "0.05x", "1e-2 "}) {
    EXPECT_EQ(bench::scale_from(text, 0.35), 0.35) << "'" << text << "'";
  }
}

}  // namespace
