// The crash-safety tentpole, end to end: kill a sweep mid-flight
// (gracefully via cancel_check / SIGINT, or hard via _exit in a forked
// child), resume it with --resume semantics, and require the final JSONL
// to be byte-identical to an uninterrupted run with only the missing jobs
// re-simulated. Plus the retry policy and the resume/retry option chain.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "exec/engine.hpp"
#include "exec/interrupt.hpp"
#include "exec/journal.hpp"
#include "exec/options.hpp"
#include "exec/sweep.hpp"
#include "scratch_dir.hpp"

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cnt::exec {
namespace {

constexpr double kScale = 0.02;

SweepSpec small_spec() {
  SimConfig base;
  base.with_cmos = base.with_static = base.with_ideal = false;
  SweepSpec spec;
  spec.base(base)
      .scale(kScale)
      .workloads({"stream_copy", "zipf_kv"})
      .axis("window", std::vector<usize>{7, 15},
            [](SimConfig& cfg, usize w) { cfg.cnt.window = w; });
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string reference_run(const std::string& path) {
  (void)ExperimentEngine(
      {.jobs = 1, .jsonl_path = path, .jsonl_timing = false})
      .run(small_spec());
  return slurp(path);
}

// The acceptance-criteria test: kill after 2 of 4 jobs, resume, and the
// journal must be byte-identical to the uninterrupted run.
TEST(ResumeEngine, KillAndResumeIsByteIdentical) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "resume_ref.jsonl";
  const std::string ref = reference_run(ref_path);
  ASSERT_FALSE(ref.empty());

  const std::string path = dir / "resume_kill.jsonl";
  usize polls = 0;
  EngineOptions interrupted_opts;
  interrupted_opts.jobs = 1;
  interrupted_opts.jsonl_path = path;
  interrupted_opts.jsonl_timing = false;
  interrupted_opts.cancel_check = [&polls] { return ++polls >= 3; };
  try {
    (void)ExperimentEngine(interrupted_opts).run(small_spec());
    FAIL() << "sweep was not interrupted";
  } catch (const SweepInterrupted& e) {
    EXPECT_EQ(e.completed(), 2u);
    EXPECT_EQ(e.total(), 4u);
    EXPECT_EQ(e.journal_path(), path + ".partial");
  }
  // The kill leaves the flushed partial behind, never the final file.
  EXPECT_FALSE(std::ifstream(path).good());
  ASSERT_TRUE(std::ifstream(path + ".partial").good());

  usize resume_polls = 0;
  EngineOptions resume_opts;
  resume_opts.jobs = 1;
  resume_opts.jsonl_path = path;
  resume_opts.jsonl_timing = false;
  resume_opts.resume = true;
  resume_opts.cancel_check = [&resume_polls] {
    ++resume_polls;
    return false;
  };
  const auto outcomes = ExperimentEngine(resume_opts).run(small_spec());

  // Byte-identical journal, partial renamed away.
  EXPECT_EQ(slurp(path), ref);
  EXPECT_FALSE(std::ifstream(path + ".partial").good());

  // Exactly the 2 missing jobs were re-simulated (cancel_check is polled
  // once per executed job); the journaled 2 were replayed. Execution is
  // input-major, so the first two jobs to run were 0 and 2 (stream_copy
  // at both windows).
  EXPECT_EQ(resume_polls, 2u);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].resumed);
  EXPECT_FALSE(outcomes[1].resumed);
  EXPECT_TRUE(outcomes[2].resumed);
  EXPECT_FALSE(outcomes[3].resumed);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
}

// Resumed outcomes must aggregate identically to computed ones.
TEST(ResumeEngine, ResumedOutcomesMatchComputedBitExactly) {
  const test::ScratchDir dir;
  const std::string path = dir / "resume_agg.jsonl";
  const auto fresh = ExperimentEngine(
      {.jobs = 1, .jsonl_path = path, .jsonl_timing = false})
      .run(small_spec());

  // Resume over the *final* file (everything journaled): all 4 replay.
  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  const auto resumed = ExperimentEngine(opts).run(small_spec());

  ASSERT_EQ(resumed.size(), fresh.size());
  for (usize i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(resumed[i].resumed);
    ASSERT_EQ(resumed[i].result.policies.size(),
              fresh[i].result.policies.size());
    for (usize j = 0; j < fresh[i].result.policies.size(); ++j) {
      EXPECT_EQ(resumed[i].result.policies[j].total().in_joules(),
                fresh[i].result.policies[j].total().in_joules());
    }
    EXPECT_EQ(resumed[i].result.saving(kPolicyCnt),
              fresh[i].result.saving(kPolicyCnt));
  }
}

TEST(ResumeEngine, CorruptTailIsRecomputed) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "resume_corrupt_ref.jsonl";
  const std::string ref = reference_run(ref_path);

  const std::string path = dir / "resume_corrupt.jsonl";
  (void)reference_run(path);

  // Fake a torn final write: move the journal back to .partial and chop
  // the last row in half.
  std::string text = slurp(path);
  std::remove(path.c_str());
  text.resize(text.size() - 40);
  {
    std::ofstream out(path + ".partial");  // cnt-lint: io-ok fabricating raw journal bytes
    out << text;
  }

  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  const auto outcomes = ExperimentEngine(opts).run(small_spec());
  EXPECT_EQ(slurp(path), ref);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].resumed);
  EXPECT_FALSE(outcomes[3].resumed);  // its row was torn -> re-simulated
}

TEST(ResumeEngine, MidFileCorruptionRefusesToResume) {
  const test::ScratchDir dir;
  const std::string path = dir / "resume_midfile.jsonl";
  (void)reference_run(path);

  // Damage a row in the MIDDLE of the journal (sealed rows follow it):
  // unlike a torn tail this is not a crash signature, and silently
  // replaying around the hole would drop results -- resume must refuse.
  std::string text = slurp(path);
  std::remove(path.c_str());
  text[text.find("job_id", text.find('\n') + 1)] = 'X';
  {
    std::ofstream out(path + ".partial");  // cnt-lint: io-ok fabricating raw journal bytes
    out << text;
  }

  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  try {
    (void)ExperimentEngine(opts).run(small_spec());
    FAIL() << "mid-file-corrupt journal was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kChecksum);
    // The row index and the refusal rationale must reach the user.
    EXPECT_NE(e.info().message.find("row 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
    EXPECT_NE(e.info().source.find(".partial"), std::string::npos);
  }
}

TEST(ResumeEngine, MismatchedSweepFingerprintThrows) {
  const test::ScratchDir dir;
  const std::string path = dir / "resume_mismatch.jsonl";
  (void)reference_run(path);

  SweepSpec other = small_spec();
  other.axis("partitions", std::vector<usize>{2},
             [](SimConfig& cfg, usize k) { cfg.cnt.partitions = k; });
  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  try {
    (void)ExperimentEngine(opts).run(other);
    FAIL() << "mismatched journal was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
  }
}

TEST(ResumeEngine, ResumeWithoutJournalRunsFresh) {
  const test::ScratchDir dir;
  const std::string path = dir / "resume_fresh.jsonl";
  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;  // nothing to resume from: plain full run
  const auto outcomes = ExperimentEngine(opts).run(small_spec());
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.ok);
    EXPECT_FALSE(o.resumed);
  }
}

TEST(ResumeEngine, ParallelResumeMatchesSerialResume) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "resume_par_ref.jsonl";
  const std::string ref = reference_run(ref_path);

  const std::string path = dir / "resume_par.jsonl";
  usize polls = 0;
  EngineOptions kill_opts;
  kill_opts.jobs = 1;
  kill_opts.jsonl_path = path;
  kill_opts.jsonl_timing = false;
  kill_opts.cancel_check = [&polls] { return ++polls >= 2; };
  EXPECT_THROW((void)ExperimentEngine(kill_opts).run(small_spec()),
               SweepInterrupted);

  EngineOptions opts;
  opts.jobs = 4;  // resume on the parallel path
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  (void)ExperimentEngine(opts).run(small_spec());
  EXPECT_EQ(slurp(path), ref);
}

TEST(Retry, SucceedsAfterTransientFailures) {
  u32 calls = 0;
  const JobRunner flaky = [&calls](const Job& job) {
    JobOutcome o;
    o.job = job;
    if (++calls < 3) {
      o.error = "transient";
      return o;
    }
    o.ok = true;
    return o;
  };
  Job job;
  job.id = 5;
  const JobOutcome out =
      run_job_with_retry(job, /*max_retries=*/3, /*backoff_ms=*/0, flaky);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(out.job.id, 5u);
}

TEST(Retry, GivesUpAfterBudget) {
  u32 calls = 0;
  const JobRunner broken = [&calls](const Job& job) {
    JobOutcome o;
    o.job = job;
    o.error = "permanent";
    ++calls;
    return o;
  };
  const JobOutcome out = run_job_with_retry(Job{}, 2, 0, broken);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 3u);  // 1 initial + 2 retries
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(out.error, "permanent");
}

TEST(Retry, ZeroBudgetPreservesLegacySingleAttempt) {
  u32 calls = 0;
  const JobRunner broken = [&calls](const Job& job) {
    JobOutcome o;
    o.job = job;
    o.error = "boom";
    ++calls;
    return o;
  };
  const JobOutcome out = run_job_with_retry(Job{}, 0, 0, broken);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(calls, 1u);
}

TEST(Interrupt, SignalHandlerSetsAndResetsFlag) {
  install_signal_handlers();
  reset_interrupt();
  EXPECT_FALSE(interrupt_requested());
  std::raise(SIGINT);
  EXPECT_TRUE(interrupt_requested());
  reset_interrupt();
  EXPECT_FALSE(interrupt_requested());
}

TEST(Interrupt, EngineStopsOnPendingInterrupt) {
  const test::ScratchDir dir;
  const std::string path = dir / "resume_signal.jsonl";
  request_interrupt();
  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.handle_signals = true;
  try {
    (void)ExperimentEngine(opts).run(small_spec());
    FAIL() << "pending interrupt was ignored";
  } catch (const SweepInterrupted& e) {
    EXPECT_EQ(e.completed(), 0u);
    EXPECT_EQ(e.total(), 4u);
  }
  reset_interrupt();

  // Without handle_signals the engine ignores the global flag entirely.
  request_interrupt();
  EngineOptions plain;
  plain.jobs = 1;
  const auto outcomes = ExperimentEngine(plain).run(small_spec());
  reset_interrupt();
  EXPECT_EQ(outcomes.size(), 4u);
}

// A hard kill: the child dies via _exit (no unwinding, no
// close_interrupted, exactly like SIGKILL mid-sweep) after 2 jobs; the
// parent resumes from whatever the per-row flush left on disk.
// fork() interacts poorly with ThreadSanitizer's runtime, so the test is
// compiled out under TSan -- the graceful-kill tests above still run.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CNT_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CNT_TSAN 1
#endif
#if defined(__unix__) && !defined(CNT_TSAN)
TEST(ResumeEngine, HardKillThenResumeIsByteIdentical) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "resume_hard_ref.jsonl";
  const std::string ref = reference_run(ref_path);

  const std::string path = dir / "resume_hard.jsonl";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die abruptly after 2 completed jobs.
    usize polls = 0;
    EngineOptions opts;
    opts.jobs = 1;
    opts.jsonl_path = path;
    opts.jsonl_timing = false;
    opts.cancel_check = [&polls]() -> bool {
      if (++polls >= 3) _exit(42);
      return false;
    };
    try {
      (void)ExperimentEngine(opts).run(small_spec());
    } catch (...) {
    }
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);
  ASSERT_TRUE(std::ifstream(path + ".partial").good());

  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  const auto outcomes = ExperimentEngine(opts).run(small_spec());
  EXPECT_EQ(slurp(path), ref);
  ASSERT_EQ(outcomes.size(), 4u);
  // Jobs 0 and 2 ran before the kill (input-major order). Row 0 was
  // flushed; row 2 still sat in the reorder buffer behind job 1, so the
  // kill lost it and resume re-simulates it.
  EXPECT_TRUE(outcomes[0].resumed);
  EXPECT_FALSE(outcomes[1].resumed);
  EXPECT_FALSE(outcomes[2].resumed);
}
#endif

// --- Quarantine journal rows (docs/robustness.md) --------------------------
//
// A hang at job 2 of 4 under the watchdog seals a Q-row mid-journal; the
// sweep still completes, and --resume replays the clean rows byte-
// identically while re-attempting only the quarantined job.

std::string quarantined_run(const std::string& path, const char* spec) {
  fp::configure(spec);
  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.job_timeout_ms = 100;
  const auto outcomes = ExperimentEngine(opts).run(small_spec());
  fp::clear();
  EXPECT_EQ(quarantined_count(outcomes), 1u);
  EXPECT_EQ(sweep_exit_code(outcomes), kExitQuarantine);
  return slurp(path);
}

TEST(QuarantineJournal, ResumeReplaysCleanRowsAndClearsTheQRow) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "quar_ref.jsonl";
  const std::string ref = reference_run(ref_path);

  const std::string path = dir / "quar_resume.jsonl";
  const std::string chaos = quarantined_run(path, "engine.job=hang@2");
  ASSERT_NE(chaos, ref);
  EXPECT_NE(chaos.find("\"quarantined\":true"), std::string::npos);
  EXPECT_NE(chaos.find("\"reason\":\"timeout\""), std::string::npos);
  EXPECT_NE(chaos.find("\"attempt_errcs\":[\"timeout\"]"),
            std::string::npos);

  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  const auto outcomes = ExperimentEngine(opts).run(small_spec());
  ASSERT_EQ(outcomes.size(), 4u);
  // The second job to run is job 2 (input-major order: 0, 2, 1, 3).
  EXPECT_TRUE(outcomes[0].resumed);
  EXPECT_TRUE(outcomes[1].resumed);
  EXPECT_FALSE(outcomes[2].resumed);  // the quarantined job, re-attempted
  EXPECT_TRUE(outcomes[3].resumed);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
  EXPECT_EQ(slurp(path), ref);
}

TEST(QuarantineJournal, TornQRowTailIsTruncatedAndRecomputed) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "quar_torn_ref.jsonl";
  const std::string ref = reference_run(ref_path);

  // Hang the LAST job so the Q-row is the journal's final row, then
  // fake a torn write by chopping into it: the crash signature resume
  // must truncate, not refuse.
  const std::string path = dir / "quar_torn.jsonl";
  std::string text = quarantined_run(path, "engine.job=hang@4");
  std::remove(path.c_str());
  text.resize(text.size() - 20);
  {
    std::ofstream out(path + ".partial");  // cnt-lint: io-ok fabricating raw journal bytes
    out << text;
  }

  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  const auto outcomes = ExperimentEngine(opts).run(small_spec());
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_FALSE(outcomes[3].resumed);  // torn Q-row -> re-simulated
  EXPECT_EQ(slurp(path), ref);
}

TEST(QuarantineJournal, CorruptQRowWithSealedRowsAfterItRefuses) {
  const test::ScratchDir dir;
  const std::string path = dir / "quar_corrupt.jsonl";
  std::string text = quarantined_run(path, "engine.job=hang@2");
  std::remove(path.c_str());

  // Damage the Q-row in place: intact sealed rows follow it, so this is
  // in-place damage, not a crash signature -- resume must refuse with
  // the checksum taxonomy, never replay around the hole.
  const std::size_t at = text.find("\"quarantined\"");
  ASSERT_NE(at, std::string::npos);
  text[at + 1] = 'X';
  {
    std::ofstream out(path + ".partial");  // cnt-lint: io-ok fabricating raw journal bytes
    out << text;
  }

  EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  opts.resume = true;
  try {
    (void)ExperimentEngine(opts).run(small_spec());
    FAIL() << "journal with a damaged Q-row was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kChecksum);
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
  }
}

TEST(Options, ResumePrecedenceChain) {
  unsetenv("CNT_RESUME");
  EXPECT_FALSE(resume_from_env());
  EXPECT_TRUE(resume_from_env(true));

  setenv("CNT_RESUME", "1", 1);
  EXPECT_TRUE(resume_from_env());
  setenv("CNT_RESUME", "off", 1);
  EXPECT_FALSE(resume_from_env(true));
  setenv("CNT_RESUME", "garbage", 1);
  EXPECT_TRUE(resume_from_env(true));  // malformed -> fallback
  unsetenv("CNT_RESUME");
}

TEST(Options, RetriesChain) {
  unsetenv("CNT_RETRIES");
  EXPECT_EQ(retries_from_env(), 0u);
  EXPECT_EQ(resolve_retries(0), 0u);
  EXPECT_EQ(resolve_retries(4), 4u);

  setenv("CNT_RETRIES", "3", 1);
  EXPECT_EQ(retries_from_env(), 3u);
  EXPECT_EQ(resolve_retries(0), 3u);
  EXPECT_EQ(resolve_retries(1), 1u);  // explicit beats env
  setenv("CNT_RETRIES", "0", 1);
  EXPECT_EQ(retries_from_env(7), 0u);
  setenv("CNT_RETRIES", "junk", 1);
  EXPECT_EQ(retries_from_env(7), 7u);
  unsetenv("CNT_RETRIES");
}

TEST(Options, JobTimeoutChain) {
  unsetenv("CNT_JOB_TIMEOUT_MS");
  EXPECT_EQ(job_timeout_from_env(), 0u);
  EXPECT_EQ(resolve_job_timeout(0), 0u);
  EXPECT_EQ(resolve_job_timeout(250), 250u);

  setenv("CNT_JOB_TIMEOUT_MS", "500", 1);
  EXPECT_EQ(job_timeout_from_env(), 500u);
  EXPECT_EQ(resolve_job_timeout(0), 500u);
  EXPECT_EQ(resolve_job_timeout(100), 100u);  // explicit beats env
  setenv("CNT_JOB_TIMEOUT_MS", "junk", 1);
  EXPECT_EQ(job_timeout_from_env(7), 7u);  // malformed -> fallback
  unsetenv("CNT_JOB_TIMEOUT_MS");
}

// 2^64 - 1 is the largest value; anything past it is not a number and
// falls through to the next source instead of wrapping.
TEST(Options, U64ValuesPastTwoToTheSixtyFourFallBack) {
  constexpr u64 kMax = 18446744073709551615u;
  setenv("CNT_JOB_TIMEOUT_MS", "18446744073709551615", 1);
  EXPECT_EQ(job_timeout_from_env(7), kMax);
  for (const char* big : {"18446744073709551616", "99999999999999999999",
                          "184467440737095516150"}) {
    setenv("CNT_JOB_TIMEOUT_MS", big, 1);
    EXPECT_EQ(job_timeout_from_env(7), 7u) << big;
    EXPECT_EQ(resolve_job_timeout(0), 0u) << big;
  }
  unsetenv("CNT_JOB_TIMEOUT_MS");
}

}  // namespace
}  // namespace cnt::exec
