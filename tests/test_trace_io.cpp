#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/workload_suite.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

Trace sample_trace() {
  Trace t("sample");
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    const u64 addr = rng.uniform(1 << 20) * 8;
    switch (rng.uniform(3)) {
      case 0: t.push(MemAccess::read(addr)); break;
      case 1: t.push(MemAccess::write(addr, rng.next())); break;
      default: t.push(MemAccess::ifetch(addr)); break;
    }
  }
  t.push(MemAccess::read(0x1001, 1));
  t.push(MemAccess::write(0x1002, 0xBEEF, 2));
  t.push(MemAccess::read(0x1004, 4));
  return t;
}

void expect_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr) << "record " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "record " << i;
    EXPECT_EQ(a[i].op, b[i].op) << "record " << i;
    if (a[i].op == MemOp::kWrite) {
      EXPECT_EQ(a[i].value, b[i].value) << "record " << i;
    }
  }
}

TEST(TraceIo, TextRoundTrip) {
  const Trace t = sample_trace();
  std::stringstream ss;
  write_text(t, ss);
  const Trace back = read_text(ss, "back");
  expect_equal(t, back);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks) {
  std::stringstream ss;
  ss << "# a comment\n\nR 40 8\n  # indented comment\nW 80 4 beef\n";
  const Trace t = read_text(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x40u);
  EXPECT_EQ(t[1].value, 0xBEEFu);
  EXPECT_EQ(t[1].size, 4u);
}

TEST(TraceIo, TextRejectsBadOp) {
  std::stringstream ss("X 40 8\n");
  EXPECT_THROW((void)read_text(ss), std::runtime_error);
}

TEST(TraceIo, TextRejectsMissingWriteValue) {
  std::stringstream ss("W 40 8\n");
  EXPECT_THROW((void)read_text(ss), std::runtime_error);
}

TEST(TraceIo, TextRejectsMisalignedAccess) {
  std::stringstream ss("R 41 4\n");
  EXPECT_THROW((void)read_text(ss), std::runtime_error);
}

TEST(TraceIo, TextRejectsOutOfRangeSize) {
  // A size of 300 used to narrow to u8 (300 & 0xFF = 44) before
  // validation, and 264 would even alias to a perfectly valid 8 and load
  // silently. Both must fail, and the error must name the line.
  for (const char* bad : {"R 40 300", "R 40 264", "R 40 0"}) {
    std::stringstream ss(std::string(bad) + "\n");
    try {
      (void)read_text(ss);
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
    }
  }
}

/// Every rejected line must be a kSyntax error naming line 2 (line 1 is
/// a valid record, so the reader really walked past it).
void expect_syntax_error_on_line_2(const std::string& bad) {
  std::stringstream ss("R 1000 8\n" + bad + "\n");
  try {
    (void)read_text(ss, "t.txt");
    ADD_FAILURE() << "accepted '" << bad << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kSyntax) << bad << ": " << e.what();
    EXPECT_EQ(e.info().line, 2u) << bad << ": " << e.what();
    EXPECT_EQ(e.info().source, "t.txt");
  }
}

TEST(TraceIo, TextRejectsNonDigitFields) {
  // A sign must not wrap: "R -40 8" would be address 0xffff...ffc0.
  for (const char* bad :
       {"R -40 8", "R +40 8", "R 40 -8", "R 40 +8", "W 40 8 -1",
        "W 40 8 +beef", "R 100 8xyz", "R 100g 8", "R 0x100 8",
        "W 80 8 beefz", "R 100 8.0"}) {
    expect_syntax_error_on_line_2(bad);
  }
}

TEST(TraceIo, TextRejectsTrailingTokens) {
  for (const char* bad :
       {"R 40 8 extra", "W 80 8 beef trailing junk", "I 40 4 0"}) {
    expect_syntax_error_on_line_2(bad);
  }
}

TEST(TraceIo, TextRejectsAddressOverflow) {
  std::stringstream ss("R 10000000000000000 8\n");
  try {
    (void)read_text(ss);
    FAIL() << "accepted a 65-bit address";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kRange) << e.what();
    EXPECT_EQ(e.info().line, 1u);
  }
}

TEST(TraceIo, FileRoundTripBothFormats) {
  const Trace t = sample_trace();
  const test::ScratchDir dir;
  for (const char* name : {"trace_io_test.txt", "trace_io_test.trs"}) {
    const std::string path = dir / name;
    save_trace(t, path);
    const auto src = open_trace(path);
    expect_equal(t, materialize(*src));
    // A text source is named by its basename; a streamed one by its path.
    EXPECT_EQ(src->name(), path.ends_with(".txt") ? name : path);
  }
}

TEST(TraceIo, OtherExtensionsAreRefusedByBothFunctions) {
  const test::ScratchDir dir;
  for (const char* name : {"trace_io_refused.bin", "trace_io_refused.trc"}) {
    const std::string path = dir / name;
    try {
      save_trace(sample_trace(), path);
      ADD_FAILURE() << "save_trace accepted " << name;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kValue) << e.what();
      EXPECT_NE(e.info().hint.find(".txt"), std::string::npos) << e.what();
      EXPECT_NE(e.info().hint.find(".trs"), std::string::npos) << e.what();
    }
    EXPECT_FALSE(std::filesystem::exists(path))
        << "save_trace left " << name << " behind";

    // The refusal is by extension, not by content: an existing file with
    // a readable text body is still refused.
    {
      std::ofstream out(path);  // cnt-lint: io-ok fabricating a text body
      out << "R 40 8\n";
    }
    try {
      (void)open_trace(path);
      ADD_FAILURE() << "open_trace accepted " << name;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kValue) << e.what();
    }
  }
}

TEST(TraceIo, ReplayLedgersMatchAcrossFormats) {
  // One workload saved both ways must replay to byte-identical ledgers:
  // the extension picks only the container, never the accesses.
  const Workload w = build_workload("zipf_kv", 0.05);
  std::string ledgers[2];
  int i = 0;
  const test::ScratchDir dir;
  for (const char* name : {"trace_io_replay.txt", "trace_io_replay.trs"}) {
    const std::string path = dir / name;
    save_trace(w.trace, path);
    SimResult res = simulate(*open_trace(path), {}, SimConfig{});
    res.workload = "replay";  // the source names differ by design
    std::ostringstream os;
    dump_json(res, os);
    ledgers[i++] = os.str();
  }
  EXPECT_FALSE(ledgers[0].empty());
  EXPECT_EQ(ledgers[0], ledgers[1]);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)open_trace("/no/such/file.txt"), std::runtime_error);
  EXPECT_THROW((void)open_trace("/no/such/file.trs"), std::runtime_error);
}

}  // namespace
}  // namespace cnt
