// cnt-lint fixture: rule R13 (TempDir() in tests/ outside
// tests/scratch_dir.hpp). Exactly ONE unsuppressed violation plus one
// suppressed twin. NOT part of the main build.
#include <string>

#include <gtest/gtest.h>

std::string shared_path() {
  return ::testing::TempDir() + "out.csv";  // <- the one R13 violation
}

std::string audited_path() {
  // cnt-lint: tempdir-ok suppressed twin (reads a path, writes nothing)
  return ::testing::TempDir();
}

// Must NOT trigger: a mention in a comment (TempDir()) or a string, and
// an unrelated identifier.
const char* kDoc = "TempDir() is wrapped by tests/scratch_dir.hpp";
int TempDirCount = 0;
