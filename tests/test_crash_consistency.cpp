// Crash-consistency regressions (ctest label: crash,
// docs/crash_consistency.md): injected I/O failures and interrupts
// mid-sweep must drain to a sealed `<path>.partial` that --resume
// restores byte-identically, and torn streamed traces must be refused
// by the reader rather than replayed wrong. tools/cnt-torture covers the
// same contracts with real SIGKILLs; these tests pin the in-process
// drain paths deterministically.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "exec/engine.hpp"
#include "exec/interrupt.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "scratch_dir.hpp"

namespace cnt::exec {
namespace {

namespace fsys = std::filesystem;

/// Disarm failpoints and clear the interrupt flag on entry and exit.
struct TortureGuard {
  TortureGuard() {
    fp::clear();
    reset_interrupt();
  }
  ~TortureGuard() {
    fp::clear();
    reset_interrupt();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool context_mentions(const ErrorInfo& info, const std::string& needle) {
  for (const auto& c : info.context) {
    if (c.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::vector<Job> three_jobs() {
  std::vector<Job> jobs;
  for (const char* w : {"zipf_kv", "ifetch", "hash_join"}) {
    Job j;
    j.workload = w;
    j.scale = 0.05;
    jobs.push_back(j);
  }
  return jobs;
}

EngineOptions journal_opts(const std::string& path, bool resume) {
  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;  // byte-identity is the contract under test
  opts.resume = resume;
  opts.max_retries = 2;
  opts.retry_backoff_ms = 1;
  return opts;
}

class CrashConsistencyTest : public ::testing::Test {
 protected:
  test::ScratchDir dir_;
  std::string path_ = dir_ / "sweep.jsonl";
  TortureGuard guard_;

  [[nodiscard]] std::string reference_path() const {
    return dir_ / "reference.jsonl";
  }

  /// Clean run into a second path: the byte-level ground truth.
  std::string reference_bytes() {
    const ExperimentEngine engine(journal_opts(reference_path(), false));
    (void)engine.run(three_jobs());
    return slurp(reference_path());
  }

  void expect_resume_restores(const std::string& want) {
    fp::clear();
    const ExperimentEngine engine(journal_opts(path_, /*resume=*/true));
    (void)engine.run(three_jobs());
    EXPECT_EQ(slurp(path_), want) << "--resume must restore the journal "
                                     "byte-identically";
  }
};

TEST_F(CrashConsistencyTest, EnospcMidSweepSealsPartialAndResumes) {
  const std::string want = reference_bytes();
  fp::configure("journal.write=error:ENOSPC@3");  // header + row0 land
  try {
    const ExperimentEngine engine(journal_opts(path_, false));
    (void)engine.run(three_jobs());
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
    EXPECT_TRUE(context_mentions(e.info(), "writing sweep journal"));
    EXPECT_NE(e.info().hint.find("--resume"), std::string::npos);
    EXPECT_NE(e.info().hint.find(path_ + ".partial"), std::string::npos);
  }
  EXPECT_FALSE(fsys::exists(path_));
  ASSERT_TRUE(fsys::exists(path_ + ".partial"));
  expect_resume_restores(want);
}

TEST_F(CrashConsistencyTest, ShortWriteTornTailIsRecoveredByResume) {
  const std::string want = reference_bytes();
  fp::configure("journal.write=short-write@2");  // row 0 tears mid-line
  EXPECT_THROW(
      {
        const ExperimentEngine engine(journal_opts(path_, false));
        (void)engine.run(three_jobs());
      },
      Error);
  // The torn prefix is really on disk -- recovery must truncate it, not
  // trip over it.
  ASSERT_TRUE(fsys::exists(path_ + ".partial"));
  expect_resume_restores(want);
}

TEST_F(CrashConsistencyTest, RenamePublishFailureKeepsSealedPartial) {
  const std::string want = reference_bytes();
  fp::configure("journal.rename=error:ENOSPC");
  try {
    const ExperimentEngine engine(journal_opts(path_, false));
    (void)engine.run(three_jobs());
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_TRUE(context_mentions(e.info(), "publishing sweep journal"));
  }
  // Every row is sealed in the partial; only the publish failed.
  EXPECT_FALSE(fsys::exists(path_));
  ASSERT_TRUE(fsys::exists(path_ + ".partial"));
  expect_resume_restores(want);
}

TEST_F(CrashConsistencyTest, TransientJobFailureRetriesToIdenticalJournal) {
  const std::string want = reference_bytes();
  fp::configure("engine.job=error:EIO@2");  // job 1 fails once, retries
  const ExperimentEngine engine(journal_opts(path_, false));
  const auto outcomes = engine.run(three_jobs());
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  EXPECT_EQ(slurp(path_), want)
      << "a retried transient failure must not change the journal";
}

TEST_F(CrashConsistencyTest, ParallelJournalFailureDrainsAndResumes) {
  const std::string want = reference_bytes();
  fp::configure("journal.write=error:ENOSPC@3");
  EngineOptions opts = journal_opts(path_, false);
  opts.jobs = 2;  // exercise the worker-side drain path
  EXPECT_THROW(
      {
        const ExperimentEngine engine(opts);
        (void)engine.run(three_jobs());
      },
      Error);
  ASSERT_TRUE(fsys::exists(path_ + ".partial"));
  expect_resume_restores(want);
}

class SignalDrainTest : public CrashConsistencyTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(SignalDrainTest, DrainsSealsPartialAndResumes) {
  const std::string want = reference_bytes();
  EngineOptions opts = journal_opts(path_, false);
  opts.handle_signals = true;
  int polls = 0;
  opts.cancel_check = [&polls]() {
    // Raise the real signal on the second poll: job 0 completes, the
    // handler flips the flag, and the next poll stops the sweep.
    if (++polls == 2) (void)std::raise(GetParam());
    return false;
  };
  try {
    const ExperimentEngine engine(opts);
    (void)engine.run(three_jobs());
    FAIL() << "must be interrupted";
  } catch (const SweepInterrupted& e) {
    EXPECT_GE(e.completed(), 1u);
    EXPECT_LT(e.completed(), 3u);
    EXPECT_EQ(e.total(), 3u);
    EXPECT_EQ(e.journal_path(), path_ + ".partial");
  }
  // The drain sealed every completed row for --resume.
  EXPECT_FALSE(fsys::exists(path_));
  ASSERT_TRUE(fsys::exists(path_ + ".partial"));
  reset_interrupt();
  expect_resume_restores(want);
}

INSTANTIATE_TEST_SUITE_P(SigintSigterm, SignalDrainTest,
                         ::testing::Values(SIGINT, SIGTERM),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return param_info.param == SIGINT ? "SIGINT"
                                                             : "SIGTERM";
                         });

TEST(TornStreamedTrace, RefusedByReaderThenRegenerates) {
  TortureGuard guard;
  const test::ScratchDir dir;
  const std::string path = dir / "torn.trs";
  auto write_trace = [&path]() {
    stream::StreamTraceWriter writer(path, 16);
    for (u64 i = 0; i < 100; ++i) {
      MemAccess a;
      a.addr = (i % 64) * 64;
      a.size = 8;
      a.op = (i % 4 == 0) ? MemOp::kWrite : MemOp::kRead;
      a.value = i;
      writer.push(a);
    }
    writer.finish();
  };

  fp::configure("trs.write=short-write@3");  // tear a chunk mid-payload
  try {
    write_trace();
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
  }
  ASSERT_TRUE(fsys::exists(path));
  // The torn file parses as nothing: the reader refuses it outright
  // instead of replaying a prefix as if it were the whole trace.
  EXPECT_THROW(
      {
        stream::StreamTraceSource src(path);
        std::vector<MemAccess> buf(64);
        while (src.next(std::span<MemAccess>(buf)) > 0) {
        }
      },
      Error);

  fp::clear();
  write_trace();  // clean regeneration over the torn file
  stream::StreamTraceSource src(path);
  std::vector<MemAccess> buf(64);
  u64 total = 0;
  usize n = 0;
  while ((n = src.next(std::span<MemAccess>(buf))) > 0) total += n;
  EXPECT_EQ(total, 100u);
}

TEST(TornStreamedTrace, WriterRefusesToSealAfterAFailedChunk) {
  TortureGuard guard;
  const test::ScratchDir dir;
  const std::string path = dir / "seal.trs";
  fp::configure("trs.write=error:ENOSPC@2");
  stream::StreamTraceWriter writer(path, 4);
  bool push_failed = false;
  for (u64 i = 0; i < 64 && !push_failed; ++i) {
    MemAccess a;
    a.addr = i * 64;
    a.size = 8;
    try {
      writer.push(a);
    } catch (const Error&) {
      push_failed = true;
    }
  }
  ASSERT_TRUE(push_failed);
  try {
    writer.finish();
    FAIL() << "must refuse to seal";
  } catch (const Error& e) {
    EXPECT_NE(e.info().message.find("refusing to seal"), std::string::npos);
    EXPECT_NE(e.info().hint.find("regenerate"), std::string::npos);
  }
}

}  // namespace
}  // namespace cnt::exec
