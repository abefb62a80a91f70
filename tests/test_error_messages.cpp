// Golden tests for the structured error taxonomy (docs/error_handling.md):
// one representative failure per ingest format, asserting the three
// contract fields -- what (message), where (source + line/byte) and how
// (hint) -- plus the single-line rendering that CLIs print. These pin the
// user-facing diagnostics, so changing a message is a deliberate act.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "exec/journal.hpp"
#include "fault/fault_config.hpp"
#include "sim/config_io.hpp"
#include "trace/trace_io.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

TEST(ErrorTaxonomy, RenderCarriesWhatWhereAndHint) {
  const Error e = Error(Errc::kSyntax, "missing '=' in key-value line")
                      .at("cfg/sim.ini", 7)
                      .hint("write 'key = value'")
                      .context("loading simulator config");
  EXPECT_EQ(e.info().code, Errc::kSyntax);
  EXPECT_EQ(e.info().where(), "cfg/sim.ini: line 7");
  EXPECT_EQ(std::string(e.what()),
            "[syntax] cfg/sim.ini: line 7: missing '=' in key-value line "
            "(while loading simulator config) -- hint: write 'key = value'");
}

TEST(ErrorTaxonomy, ErrcNamesAreStable) {
  // The fuzz digest hashes these names; renaming one changes every
  // recorded digest, so the mapping is pinned here.
  EXPECT_EQ(errc_name(Errc::kIo), "io");
  EXPECT_EQ(errc_name(Errc::kSyntax), "syntax");
  EXPECT_EQ(errc_name(Errc::kDuplicateKey), "duplicate-key");
  EXPECT_EQ(errc_name(Errc::kMagic), "magic");
  EXPECT_EQ(errc_name(Errc::kChecksum), "checksum");
}

TEST(GoldenIni, DuplicateKeyNamesPathLineAndFix) {
  std::istringstream is("[s]\nk = 1\nk = 2\n");
  try {
    (void)Config::parse(is, "sim.ini");
    FAIL() << "must throw";
  } catch (const Error& e) {
    const ErrorInfo& info = e.info();
    EXPECT_EQ(info.code, Errc::kDuplicateKey);
    EXPECT_EQ(info.message, "key 's.k' is defined more than once");
    EXPECT_EQ(info.source, "sim.ini");
    EXPECT_EQ(info.line, 3u);
    EXPECT_EQ(info.hint,
              "remove the duplicate; earlier definitions would otherwise be "
              "silently overridden");
  }
}

TEST(GoldenTraceText, BadOpNamesSourceLineAndGrammar) {
  std::istringstream is("R 1000 8\nQ 2000 4\n");
  try {
    (void)read_text(is, "demo.txt");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kSyntax);
    EXPECT_EQ(e.info().message, "bad op 'Q'");
    EXPECT_EQ(e.info().source, "demo.txt");
    EXPECT_EQ(e.info().line, 2u);
    EXPECT_EQ(e.info().hint,
              "each record starts with R (read), W (write) or I (ifetch)");
  }
}

TEST(GoldenJournal, MidFileCorruptionNamesRowLineAndRefusal) {
  exec::JournalData journal;
  journal.header_ok = true;
  journal.mid_file_corruption = true;
  journal.corrupt_row_index = 4;
  journal.corrupt_line = 6;
  journal.source_path = "sweep.jsonl.partial";
  const auto err = exec::journal_corruption_error(journal);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->info().code, Errc::kChecksum);
  EXPECT_EQ(err->info().message,
            "journal row 4 fails its CRC seal with intact rows after it "
            "(mid-file corruption, not a torn tail)");
  EXPECT_EQ(err->info().where(), "sweep.jsonl.partial: line 6");
  EXPECT_NE(err->info().hint.find("rerun without --resume"),
            std::string::npos);

  // A merely torn tail must NOT produce a refusal.
  journal.mid_file_corruption = false;
  EXPECT_FALSE(exec::journal_corruption_error(journal).has_value());
}

TEST(GoldenJsonl, SyntaxErrorCarriesByteOffset) {
  try {
    (void)parse_json("{\"a\":1,}", "row.jsonl");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kSyntax);
    EXPECT_EQ(e.info().source, "row.jsonl");
    EXPECT_GT(e.info().byte, 0u);
    EXPECT_EQ(e.info().line, 0u);  // byte-addressed, not line-addressed
    EXPECT_EQ(e.info().hint, "the input is not well-formed JSON");
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(GoldenConfigValue, BadIntegerIsValueErrorWithKeyAndValue) {
  const auto c = Config::parse_string("[s]\nn = 3x\n");
  try {
    (void)c.get_int("s.n", 0);
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kValue);
    EXPECT_EQ(e.info().message, "key 's.n' has invalid integer value '3x'");
    EXPECT_EQ(e.info().hint, "use a plain base-10 integer");
  }
}

TEST(GoldenFaultConfig, OutOfRangeProbabilityNamesKeyValueAndRange) {
  FaultConfig cfg;
  cfg.transient_per_read = -0.1;
  try {
    cfg.validate();
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kRange);
    EXPECT_EQ(e.info().message,
              "key 'fault.transient_per_read' has out-of-range value '-0.1'");
    EXPECT_EQ(e.info().hint, "use a per-bit probability in [0, 1]");
    EXPECT_EQ(std::string(e.what()),
              "[range] key 'fault.transient_per_read' has out-of-range value "
              "'-0.1' -- hint: use a per-bit probability in [0, 1]");
  }
}

TEST(GoldenFaultConfig, NegativeDensityAndBadFractionNameTheirKeys) {
  FaultConfig density;
  density.stuck_per_mbit = -3.0;
  try {
    density.validate();
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().message,
              "key 'fault.stuck_per_mbit' has out-of-range value '-3'");
    EXPECT_EQ(e.info().hint,
              "use a stuck-cell density per 2^20 bits in [0, 1048576]");
  }
  FaultConfig fraction;
  fraction.stuck_at1_fraction = 2.0;
  try {
    fraction.validate();
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().message,
              "key 'fault.stuck_at1' has out-of-range value '2'");
    EXPECT_EQ(e.info().hint, "use a fraction in [0, 1]");
  }
}

/// The single-line rendering of sim_config_from's refusal of `ini`.
std::string sim_config_refusal(const std::string& ini) {
  try {
    (void)sim_config_from(Config::parse_string(ini));
  } catch (const ValueError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(GoldenSimConfig, BadEnumListsItsChoices) {
  EXPECT_EQ(sim_config_refusal("[cache]\nreplacement = mru\n"),
            "[value] key 'cache.replacement' has unknown value 'mru' -- "
            "hint: use one of lru/plru/tree-plru/fifo/random");
}

TEST(GoldenSimConfig, U32KeyThatWouldWrapIsOutOfRange) {
  EXPECT_EQ(sim_config_refusal("[cache]\naddr_bits = 4294967336\n"),
            "[range] key 'cache.addr_bits' has out-of-range value "
            "'4294967336' -- hint: use at most 4294967295");
}

TEST(GoldenSimConfig, BadGeometryKeepsItsText) {
  EXPECT_EQ(sim_config_refusal("[cache]\nsize = 1000\n"),
            "[range] L1D: size must be a multiple of ways*line_bytes");
}

TEST(GoldenIo, InjectedEnospcRendersWhatWhereAndHint) {
  fp::clear();
  fp::configure("csv.write=error:ENOSPC");
  const test::ScratchDir dir;
  const std::string path = dir / "golden_io.csv";
  io::DurableFile f(path, "csv");
  try {
    f.write("row\n");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
    EXPECT_EQ(e.info().message,
              "write failed: ENOSPC (no space left on device)");
    EXPECT_EQ(e.info().source, path);
    EXPECT_EQ(e.info().hint, "free disk space and rerun");
    EXPECT_EQ(std::string(e.what()),
              "[io] " + path +
                  ": write failed: ENOSPC (no space left on device) -- "
                  "hint: free disk space and rerun");
  }
  fp::clear();
  f.close();
}

TEST(GoldenIo, ShortWriteNamesTheTornByteCount) {
  fp::clear();
  fp::configure("csv.write=short-write");
  const test::ScratchDir dir;
  const std::string path = dir / "golden_torn.csv";
  io::DurableFile f(path, "csv");
  try {
    f.write("abcdefgh");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
    EXPECT_EQ(e.info().message,
              "write failed after 4 of 8 bytes: ENOSPC (no space left on "
              "device)");
    EXPECT_EQ(e.info().source, path);
  }
  fp::clear();
  f.close();
}

TEST(GoldenIo, FsyncEioAndRenameFailureNameTheFailedStep) {
  fp::clear();
  const test::ScratchDir dir;
  const std::string path = dir / "golden_sync.csv";
  {
    fp::configure("csv.sync=error:EIO");
    io::DurableFile f(path, "csv");
    f.write("x");
    try {
      f.sync();
      FAIL() << "must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.info().message, "fsync failed: EIO (input/output error)");
      EXPECT_EQ(e.info().hint,
                "the device reported an I/O error; check the filesystem "
                "before retrying");
    }
    fp::clear();
  }
  {
    fp::configure("csv.rename=error:ENOSPC");
    io::AtomicFileWriter out(path, "csv");
    out.write("y");
    try {
      out.commit();
      FAIL() << "must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.info().code, Errc::kIo);
      EXPECT_NE(e.info().message.find("rename failed"), std::string::npos);
      EXPECT_EQ(e.info().source, out.partial_path());
      ASSERT_EQ(e.info().context.size(), 1u);
      EXPECT_EQ(e.info().context[0], "publishing " + path);
    }
    fp::clear();
  }
}

TEST(ErrorTaxonomy, FormatErrorFallsBackForPlainExceptions) {
  const std::runtime_error plain("plain failure");
  EXPECT_EQ(format_error(plain), "plain failure");
  const Error rich = Error(Errc::kIo, "cannot open config file")
                         .at("missing.ini")
                         .hint("check the path and permissions");
  EXPECT_EQ(format_error(rich),
            "[io] missing.ini: cannot open config file -- hint: check the "
            "path and permissions");
}

TEST(ErrorTaxonomy, NearestMatchSuggestsCloseKeysOnly) {
  const std::vector<std::string> known = {"cache.size", "cache.ways",
                                          "cnt.window"};
  EXPECT_EQ(nearest_match("cache.siez", known), "cache.size");
  EXPECT_EQ(nearest_match("cnt.window", known), "cnt.window");
  EXPECT_EQ(nearest_match("zzzzzz", known), "");
}

}  // namespace
}  // namespace cnt
