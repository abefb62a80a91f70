#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string r = t.render();
  EXPECT_NE(r.find("name"), std::string::npos);
  EXPECT_NE(r.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(r.find("---"), std::string::npos);
  // All lines share the same width.
  std::istringstream is(r);
  std::string line;
  usize width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.render());
}

TEST(Table, NumAndPct) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(-1.5, 0), "-2");  // printf rounds half to even
  EXPECT_EQ(Table::pct(0.222, 1), "22.2%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

class CsvTest : public ::testing::Test {
 protected:
  test::ScratchDir dir_;
  std::string path_ = dir_ / "csv_test.csv";

  [[nodiscard]] std::string slurp() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"x", "y"});
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
    csv.finish();
  }
  EXPECT_EQ(slurp(), "x,y\n1,2\n3,4\n");
}

TEST_F(CsvTest, EscapesSpecialCells) {
  {
    CsvWriter csv(path_, {"a"});
    csv.add_row({"has,comma"});
    csv.add_row({"has\"quote"});
    csv.finish();
  }
  EXPECT_EQ(slurp(), "a\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvTest, WithoutFinishNothingIsPublished) {
  {
    CsvWriter csv(path_, {"a"});
    csv.add_row({"1"});
    // no finish(): the writer discards its staging file on destruction
  }
  EXPECT_FALSE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".partial"));
}

TEST_F(CsvTest, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace cnt
