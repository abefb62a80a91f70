// A per-test scratch directory: <TempDir>/<suite>.<test>.<pid>/.
//
// Construct one inside a test (or as a fixture member) and build every
// file path from it. The name carries the suite, the test and the pid, so
// tests that gtest_discover_tests runs as parallel processes -- and two
// build trees testing at once -- never share a file. The directory starts
// empty, is removed when the test passed, and is kept (its path printed)
// when the test failed, so a failure leaves its evidence behind. One per
// test.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace cnt::test {

class ScratchDir {
 public:
  ScratchDir() : path_(std::filesystem::path(::testing::TempDir()) / name()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    if (::testing::Test::HasFailure()) {
      std::cerr << "scratch directory kept: " << path_.string() << "\n";
      return;
    }
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// `file` inside the directory.
  [[nodiscard]] std::string operator/(std::string_view file) const {
    return (path_ / file).string();
  }

 private:
  static std::string name() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string n = info == nullptr ? std::string("no_test")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
    for (char& c : n) {
      if (c == '/') c = '_';  // parameterized names: Suite/Name/0
    }
    return n + "." + std::to_string(::getpid());
  }

  std::filesystem::path path_;
};

}  // namespace cnt::test
