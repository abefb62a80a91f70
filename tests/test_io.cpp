// Unit tests for the durable-I/O layer (common/io.hpp,
// docs/crash_consistency.md): checked DurableFile writes, atomic
// publish via AtomicFileWriter, errno mapping onto the taxonomy, and
// deterministic failure injection through the failpoint registry.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

namespace fsys = std::filesystem;

/// Disarm every failpoint when a test exits, pass or fail.
struct FpGuard {
  FpGuard() { fp::clear(); }
  ~FpGuard() { fp::clear(); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class IoTest : public ::testing::Test {
 protected:
  test::ScratchDir dir_;
  std::string path_ = dir_ / "io_test.out";
};

TEST(IoErrno, NamesAndLabelsAreStable) {
  EXPECT_EQ(io::errno_name(ENOSPC), "ENOSPC");
  EXPECT_EQ(io::errno_name(EIO), "EIO");
  EXPECT_EQ(io::errno_name(12345), "");
  EXPECT_EQ(io::errno_label(ENOSPC), "ENOSPC (no space left on device)");
  EXPECT_EQ(io::errno_label(EIO), "EIO (input/output error)");
  EXPECT_EQ(io::errno_label(12345), "errno 12345");
}

TEST_F(IoTest, DurableFileWritesEveryByte) {
  {
    io::DurableFile f(path_, "csv");
    f.write("hello ");
    f.write("world\n");
    f.sync();
    f.close();
  }
  EXPECT_EQ(slurp(path_), "hello world\n");
}

TEST(IoOpen, MissingDirectoryIsAStructuredError) {
  try {
    io::DurableFile f("/nonexistent_dir_xyz/f.bin", "csv");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
    EXPECT_EQ(e.info().message,
              "open failed: ENOENT (no such file or directory)");
    EXPECT_EQ(e.info().source, "/nonexistent_dir_xyz/f.bin");
    EXPECT_EQ(e.info().hint, "check that the directory exists and is writable");
  }
}

TEST_F(IoTest, AtomicWriterPublishesOnlyOnCommit) {
  io::AtomicFileWriter out(path_, "csv");
  out.stream() << "payload\n";
  EXPECT_FALSE(fsys::exists(path_));
  EXPECT_TRUE(fsys::exists(out.partial_path()));
  out.commit();
  EXPECT_TRUE(out.committed());
  EXPECT_EQ(slurp(path_), "payload\n");
  EXPECT_FALSE(fsys::exists(out.partial_path()));
  out.commit();  // idempotent
  EXPECT_EQ(slurp(path_), "payload\n");
}

TEST_F(IoTest, AtomicWriterDiscardRemovesStagingFile) {
  io::AtomicFileWriter out(path_, "csv");
  out.write("doomed");
  out.discard();
  EXPECT_FALSE(fsys::exists(path_));
  EXPECT_FALSE(fsys::exists(out.partial_path()));
  out.discard();  // safe twice
  EXPECT_THROW(out.commit(), std::logic_error);
}

TEST_F(IoTest, AtomicWriterDestructorDiscards) {
  {
    io::AtomicFileWriter out(path_, "csv");
    out.stream() << "never published";
  }
  EXPECT_FALSE(fsys::exists(path_));
  EXPECT_FALSE(fsys::exists(path_ + ".partial"));
}

TEST_F(IoTest, AtomicWriterKeepsOldFileUntilCommit) {
  {
    io::AtomicFileWriter out(path_, "csv");
    out.stream() << "v1\n";
    out.commit();
  }
  io::AtomicFileWriter out(path_, "csv");
  out.stream() << "v2\n";
  EXPECT_EQ(slurp(path_), "v1\n");  // old artifact intact while staging
  out.commit();
  EXPECT_EQ(slurp(path_), "v2\n");
}

TEST_F(IoTest, InjectedEnospcThrowsAndIsOneShot) {
  FpGuard guard;
  fp::configure("csv.write=error:ENOSPC");
  io::DurableFile f(path_, "csv");
  try {
    f.write("abcdefgh");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
    EXPECT_EQ(e.info().message,
              "write failed: ENOSPC (no space left on device)");
    EXPECT_EQ(e.info().hint, "free disk space and rerun");
  }
  // One-shot: the recovery write goes through clean.
  f.write("recovered\n");
  f.close();
  EXPECT_EQ(slurp(path_), "recovered\n");
}

TEST_F(IoTest, InjectedShortWritePersistsExactlyHalf) {
  FpGuard guard;
  fp::configure("csv.write=short-write");
  io::DurableFile f(path_, "csv");
  try {
    f.write("abcdefgh");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().message,
              "write failed after 4 of 8 bytes: ENOSPC (no space left on "
              "device)");
  }
  f.close();
  EXPECT_EQ(slurp(path_), "abcd");  // the torn prefix really is on disk
}

TEST_F(IoTest, InjectedRenameFailureLeavesNoArtifact) {
  FpGuard guard;
  fp::configure("csv.rename=error:ENOSPC");
  bool threw = false;
  {
    io::AtomicFileWriter out(path_, "csv");
    out.stream() << "payload\n";
    try {
      out.commit();
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.info().code, Errc::kIo);
      ASSERT_EQ(e.info().context.size(), 1u);
      EXPECT_EQ(e.info().context[0], "publishing " + path_);
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_FALSE(fsys::exists(path_));             // nothing published
  EXPECT_FALSE(fsys::exists(path_ + ".partial"));  // staging cleaned up
}

TEST_F(IoTest, CsvWriterPublishesAtFinishThroughTheAtomicPath) {
  FpGuard guard;
  fp::configure("csv.sync=error:EIO");
  {
    CsvWriter csv(path_, {"a"});
    csv.add_row({"1"});
    EXPECT_THROW(csv.finish(), Error);
  }
  EXPECT_FALSE(fsys::exists(path_));
  fp::clear();
  {
    CsvWriter csv(path_, {"a"});
    csv.add_row({"1"});
    csv.finish();
  }
  EXPECT_EQ(slurp(path_), "a\n1\n");
}

}  // namespace
}  // namespace cnt
