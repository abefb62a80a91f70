// Build each sweep input once: the input-major plan, the shared-input
// table (one build per group, failed builds not cached, cancellable
// waits), and the engine around them -- byte-identical JSONL at any
// --jobs, outcomes equal to stand-alone run_job(), and no more worker
// threads than pending jobs.
#include "exec/shared_inputs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "exec/engine.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "sim/stats_dump.hpp"
#include "trace/workload_suite.hpp"
#include "scratch_dir.hpp"

namespace cnt::exec {
namespace {

constexpr double kScale = 0.02;

Job make_job(u64 id, const std::string& workload, double scale = kScale,
             u64 seed_offset = 0) {
  Job j;
  j.id = id;
  j.workload = workload;
  j.scale = scale;
  j.seed_offset = seed_offset;
  j.config.with_cmos = j.config.with_static = j.config.with_ideal = false;
  return j;
}

std::vector<usize> all_indices(usize n) {
  std::vector<usize> v(n);
  for (usize i = 0; i < n; ++i) v[i] = i;
  return v;
}

std::vector<usize> flatten(const std::vector<InputGroup>& groups) {
  std::vector<usize> order;
  for (const InputGroup& g : groups) {
    order.insert(order.end(), g.begin(), g.end());
  }
  return order;
}

/// window {7, 15} x seed offsets {0, 1} x three workloads: 12 jobs over
/// 6 inputs, each input shared by the two windows.
SweepSpec shared_spec() {
  SimConfig base;
  base.with_cmos = base.with_static = base.with_ideal = false;
  SweepSpec spec;
  spec.base(base)
      .scale(kScale)
      .workloads({"stream_copy", "zipf_kv", "pointer_chase"})
      .seed_offsets({0, 1})
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

std::string row_text(const JobOutcome& o) {
  std::ostringstream os;
  write_jsonl_row(o, os, /*include_timing=*/false);
  return os.str();
}

std::string result_text(const SimResult& r) {
  std::ostringstream os;
  dump_json(r, os);
  return os.str();
}

/// `got` equals the stand-alone run_job(job) outcome bit for bit (a
/// failure by its error; the engine adds the retry and quarantine record).
void expect_matches_standalone(const JobOutcome& got) {
  const JobOutcome want = run_job(got.job);
  ASSERT_EQ(got.ok, want.ok) << got.job.workload << ": " << got.error;
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.errc, want.errc);
  if (!want.ok) return;
  EXPECT_EQ(row_text(got), row_text(want));
  EXPECT_EQ(result_text(got.result), result_text(want.result));
  ASSERT_EQ(got.result.policies.size(), want.result.policies.size());
  for (usize p = 0; p < want.result.policies.size(); ++p) {
    EXPECT_EQ(got.result.policies[p].total().in_joules(),
              want.result.policies[p].total().in_joules());
  }
}

// --- the plan ---------------------------------------------------------------

TEST(InputPlan, OrderIsAPermutationOfThePendingJobs) {
  std::vector<Job> jobs;
  const char* names[] = {"zipf_kv", "stream_copy", "zipf_kv", "ifetch",
                         "stream_copy", "zipf_kv", "ifetch", "hash_join"};
  for (u64 i = 0; i < 8; ++i) {
    jobs.push_back(make_job(i, names[i], i % 3 == 0 ? 0.05 : kScale, i % 2));
  }
  for (const std::vector<usize>& pending :
       {all_indices(jobs.size()), std::vector<usize>{1, 2, 5, 6, 7},
        std::vector<usize>{}}) {
    std::vector<usize> order = flatten(plan_inputs(jobs, pending));
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, pending);
  }
}

TEST(InputPlan, GroupsComeInFirstAppearanceOrder) {
  // small_spec-shaped: window-major, workloads innermost.
  const std::vector<Job> jobs = {
      make_job(0, "stream_copy"), make_job(1, "zipf_kv"),
      make_job(2, "stream_copy"), make_job(3, "zipf_kv"),
      make_job(4, "stream_copy", kScale, 1), make_job(5, "zipf_kv", 0.05)};
  const std::vector<InputGroup> groups =
      plan_inputs(jobs, all_indices(jobs.size()));
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (InputGroup{0, 2}));
  EXPECT_EQ(groups[1], (InputGroup{1, 3}));
  EXPECT_EQ(groups[2], (InputGroup{4}));  // another seed offset
  EXPECT_EQ(groups[3], (InputGroup{5}));  // another scale

  // Replayed jobs are not pending and take no place in the plan.
  const std::vector<InputGroup> rest =
      plan_inputs(jobs, std::vector<usize>{1, 2, 3});
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], (InputGroup{1, 3}));
  EXPECT_EQ(rest[1], (InputGroup{2}));
}

TEST(InputPlan, AllDistinctInputsKeepSubmissionOrder) {
  const std::vector<Job> jobs = SweepSpec().scale(kScale).suite().expand();
  const std::vector<usize> pending = all_indices(jobs.size());
  EXPECT_EQ(flatten(plan_inputs(jobs, pending)), pending);
}

// --- the shared-input table -------------------------------------------------

TEST(SharedInputs, BuildsOncePerGroupAndFreesAfterTheLastJob) {
  const std::vector<Job> jobs = {make_job(0, "stream_copy"),
                                 make_job(1, "zipf_kv"),
                                 make_job(2, "stream_copy")};
  const auto groups = plan_inputs(jobs, all_indices(jobs.size()));
  SharedInputs inputs(jobs.size(), groups);

  bool built = false;
  const std::weak_ptr<const Workload> first = inputs.acquire(jobs[0], built);
  EXPECT_TRUE(built);
  inputs.release(jobs[0]);
  EXPECT_FALSE(first.expired()) << "job 2 still needs the input";
  EXPECT_EQ(inputs.acquire(jobs[2], built), first.lock());
  EXPECT_FALSE(built);
  inputs.release(jobs[2]);
  EXPECT_TRUE(first.expired()) << "the group's last job released it";
  EXPECT_EQ(inputs.builds(), 1u);
}

TEST(SharedInputs, FailedBuildIsNotCached) {
  const std::vector<Job> jobs = {make_job(0, "stream_copy"),
                                 make_job(1, "stream_copy")};
  int calls = 0;
  SharedInputs inputs(jobs.size(), plan_inputs(jobs, all_indices(2)),
                      [&calls](const Job& job) {
                        if (++calls == 1) throw std::runtime_error("flaky");
                        return build_workload(job.workload, job.scale,
                                              job.seed_offset);
                      });
  bool built = false;
  EXPECT_THROW((void)inputs.acquire(jobs[0], built), std::runtime_error);
  EXPECT_EQ(inputs.builds(), 0u);
  EXPECT_NE(inputs.acquire(jobs[1], built), nullptr);  // rebuilds
  EXPECT_TRUE(built);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(inputs.builds(), 1u);
}

// A job waiting for another thread's build stays cancellable: its
// attempt token ends the wait with the structured cancellation error.
TEST(SharedInputs, WaitForAnotherBuildIsCancellable) {
  const std::vector<Job> jobs = {make_job(0, "stream_copy"),
                                 make_job(1, "stream_copy")};
  cancel::Token gate;  // holds the builder until cancelled
  std::atomic<bool> building{false};
  SharedInputs inputs(jobs.size(), plan_inputs(jobs, all_indices(2)),
                      [&](const Job& job) {
                        building = true;
                        (void)gate.wait_ms(30'000);
                        return build_workload(job.workload, job.scale,
                                              job.seed_offset);
                      });
  std::thread builder([&] {
    bool built = false;
    (void)inputs.acquire(jobs[0], built);
  });
  const cancel::Token pause;
  while (!building) (void)pause.wait_ms(1);

  cancel::Token attempt;
  attempt.cancel(cancel::Reason::kTimeout);
  {
    const cancel::ScopedToken scope(attempt);
    bool built = false;
    try {
      (void)inputs.acquire(jobs[1], built);
      ADD_FAILURE() << "a cancelled waiter kept waiting";
    } catch (const Error& e) {
      EXPECT_EQ(e.info().code, Errc::kTimeout);
    }
  }
  gate.cancel();
  builder.join();
  bool built = true;
  EXPECT_NE(inputs.acquire(jobs[1], built), nullptr);
  EXPECT_FALSE(built);
  EXPECT_EQ(inputs.builds(), 1u);
}

// A transient engine.job failure is retried on the input the group
// already built: the retry does not rebuild it.
TEST(SharedInputs, TransientFailureRetryReusesTheInput) {
  const std::vector<Job> jobs = {make_job(0, "stream_copy"),
                                 make_job(1, "stream_copy")};
  int calls = 0;
  SharedInputs inputs(jobs.size(), plan_inputs(jobs, all_indices(2)),
                      [&calls](const Job& job) {
                        ++calls;
                        return build_workload(job.workload, job.scale,
                                              job.seed_offset);
                      });
  const JobRunner runner = [&inputs](const Job& job) {
    return run_shared_job(job, inputs);
  };
  fp::configure("engine.job=error:EIO@2");  // job 1's first attempt
  std::vector<JobOutcome> outs;
  for (const Job& job : jobs) {
    outs.push_back(run_job_with_retry(job, /*max_retries=*/1, 0, runner));
    inputs.release(job);
  }
  fp::clear();
  EXPECT_EQ(outs[0].attempts, 1u);
  EXPECT_EQ(outs[1].attempts, 2u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(inputs.builds(), 1u);
  for (const JobOutcome& o : outs) expect_matches_standalone(o);
}

// --- the engine -------------------------------------------------------------

TEST(SharedInputsEngine, JsonlIsByteIdenticalAtAnyWorkerCount) {
  const test::ScratchDir dir;
  std::string first;
  for (const usize workers : {1u, 2u, 4u}) {
    const std::string path = dir / (std::to_string(workers) + ".jsonl");
    const auto outcomes =
        ExperimentEngine(
            {.jobs = workers, .jsonl_path = path, .jsonl_timing = false})
            .run(shared_spec());
    ASSERT_EQ(outcomes.size(), 12u);
    for (usize i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].job.id, i);
      expect_matches_standalone(outcomes[i]);
    }
    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    if (workers == 1) {
      first = text;
    } else {
      EXPECT_EQ(text, first) << "--jobs " << workers;
    }
  }
}

TEST(SharedInputsEngine, UnbuildableInputFailsEveryJobOfItsGroup) {
  SimConfig base;
  base.with_cmos = base.with_static = base.with_ideal = false;
  SweepSpec spec;
  spec.base(base)
      .scale(kScale)
      .workloads({"stream_copy", "no_such_kernel", "zipf_kv"})
      .axis("window", std::vector<usize>{7, 15},
            [](SimConfig& cfg, usize w) { cfg.cnt.window = w; });
  for (const usize workers : {1u, 2u}) {
    const auto outcomes = ExperimentEngine({.jobs = workers}).run(spec);
    ASSERT_EQ(outcomes.size(), 6u);
    const JobOutcome& first_bad = outcomes[1];
    EXPECT_FALSE(first_bad.ok);
    EXPECT_NE(first_bad.error.find("no_such_kernel"), std::string::npos);
    for (const JobOutcome& o : outcomes) {
      if (o.job.workload == "no_such_kernel") {
        EXPECT_FALSE(o.ok);
        EXPECT_EQ(o.error, first_bad.error);
        EXPECT_EQ(o.errc, first_bad.errc);
      } else {
        EXPECT_TRUE(o.ok) << o.error;
      }
      expect_matches_standalone(o);
    }
  }
}

TEST(SharedInputsEngine, RetriedJobJournalIsUnchanged) {
  const test::ScratchDir dir;
  const std::string ref_path = dir / "retry_ref.jsonl";
  const std::string path = dir / "retry.jsonl";
  (void)ExperimentEngine(
      {.jobs = 1, .jsonl_path = ref_path, .jsonl_timing = false})
      .run(shared_spec());

  // The second job to run is job 6 (stream_copy, window=15): it shares
  // job 0's input and fails once.
  fp::configure("engine.job=error:EIO@2");
  const auto outcomes =
      ExperimentEngine({.jobs = 1,
                        .jsonl_path = path,
                        .jsonl_timing = false,
                        .max_retries = 1,
                        .retry_backoff_ms = 0})
          .run(shared_spec());
  fp::clear();
  ASSERT_EQ(outcomes.size(), 12u);
  for (usize i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].attempts, i == 6 ? 2u : 1u) << "job " << i;
  }
  EXPECT_EQ(slurp(path), slurp(ref_path));
}

#if defined(__linux__)
/// Threads of this process, read from /proc/self/task.
usize live_threads() {
  usize n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// --jobs 24 on a 2-job sweep starts 2 workers, not 24. cancel_check runs
// on a worker before each job, when every worker of the pool exists.
TEST(SharedInputsEngine, StartsNoMoreWorkersThanPendingJobs) {
  const std::vector<Job> jobs = {make_job(0, "stream_copy"),
                                 make_job(1, "zipf_kv")};
  // A first thread lets a sanitizer runtime start its helper thread now,
  // so the baseline counts it.
  std::thread([] {}).join();
  const usize before = live_threads();
  usize peak = 0;
  EngineOptions opts;
  opts.jobs = 24;
  opts.cancel_check = [&peak] {
    peak = std::max(peak, live_threads());
    return false;
  };
  const auto outcomes = ExperimentEngine(opts).run(jobs);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const JobOutcome& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
  EXPECT_GT(peak, before) << "a 2-job sweep at --jobs 24 runs on workers";
  EXPECT_LE(peak, before + 2);
}
#endif

}  // namespace
}  // namespace cnt::exec
