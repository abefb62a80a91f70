// ExperimentEngine + SweepSpec: grid expansion, the parallel==serial
// determinism contract (bit-identical energies), parity with the legacy
// run_suite() loop, failure isolation, and the CNT_JOBS/--jobs option
// chain.
#include "exec/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/options.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "sim/report.hpp"
#include "trace/workload_suite.hpp"
#include "scratch_dir.hpp"

namespace cnt::exec {
namespace {

constexpr double kScale = 0.02;  // tiny traces keep the suite fast

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

TEST(SweepSpec, ExpansionShape) {
  const auto jobs = small_spec().expand();
  ASSERT_EQ(jobs.size(), 4u);  // 2 windows x 2 workloads
  EXPECT_EQ(small_spec().job_count(), 4u);

  // Axis-major order, workloads innermost, dense ids.
  EXPECT_EQ(jobs[0].tag, "window=7");
  EXPECT_EQ(jobs[0].workload, "stream_copy");
  EXPECT_EQ(jobs[1].tag, "window=7");
  EXPECT_EQ(jobs[1].workload, "zipf_kv");
  EXPECT_EQ(jobs[2].tag, "window=15");
  EXPECT_EQ(jobs[3].tag, "window=15");
  for (usize i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
  }
  EXPECT_EQ(jobs[0].config.cnt.window, 7u);
  EXPECT_EQ(jobs[2].config.cnt.window, 15u);
  EXPECT_EQ(jobs[0].scale, kScale);
}

TEST(SweepSpec, MultiAxisCartesianProduct) {
  SweepSpec spec;
  spec.scale(kScale)
      .workload("stream_copy")
      .axis("window", std::vector<usize>{7, 15},
            [](SimConfig& cfg, usize w) { cfg.cnt.window = w; })
      .axis("partitions", std::vector<usize>{1, 4, 8},
            [](SimConfig& cfg, usize k) { cfg.cnt.partitions = k; });
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].tag, "window=7,partitions=1");
  EXPECT_EQ(jobs[1].tag, "window=7,partitions=4");
  EXPECT_EQ(jobs[2].tag, "window=7,partitions=8");
  EXPECT_EQ(jobs[3].tag, "window=15,partitions=1");
  EXPECT_EQ(jobs[3].config.cnt.window, 15u);
  EXPECT_EQ(jobs[3].config.cnt.partitions, 1u);
}

TEST(SweepSpec, DoubleAxisTagsAndSeeds) {
  SweepSpec spec;
  spec.scale(kScale)
      .workload("stream_copy")
      .seed_offsets({0, 1})
      .axis("asym", std::vector<double>{0.25, 1.0},
            [](SimConfig&, double) {});
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 4u);  // 2 values x 2 seeds x 1 workload
  EXPECT_EQ(jobs[0].tag, "asym=0.25");
  EXPECT_EQ(jobs[0].seed_offset, 0u);
  EXPECT_EQ(jobs[1].seed_offset, 1u);
  EXPECT_EQ(jobs[2].tag, "asym=1");
}

TEST(SweepSpec, DefaultsToSuiteWorkloads) {
  SweepSpec spec;
  spec.scale(kScale);
  EXPECT_EQ(spec.job_count(), suite_names().size());
}

// A non-finite scale would reach the generators' size arithmetic
// (llround of inf), so the spec refuses it up front like a non-positive
// one.
TEST(SweepSpec, RejectsNonFiniteScale) {
  SweepSpec spec;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    EXPECT_THROW(spec.scale(bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(spec.scale(kScale));
}

// The tentpole guarantee: a parallel run is bit-identical to --jobs 1.
TEST(ExperimentEngine, ParallelMatchesSerialBitExactly) {
  const auto spec = small_spec();
  const auto serial = ExperimentEngine({.jobs = 1}).run(spec);
  const auto parallel = ExperimentEngine({.jobs = 4}).run(spec);

  ASSERT_EQ(serial.size(), parallel.size());
  for (usize i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& p = parallel[i];
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(s.job.id, p.job.id);
    EXPECT_EQ(s.job.workload, p.job.workload);
    EXPECT_EQ(s.job.tag, p.job.tag);
    // Bit-identical energies, not approximately-equal ones.
    ASSERT_EQ(s.result.policies.size(), p.result.policies.size());
    for (usize j = 0; j < s.result.policies.size(); ++j) {
      EXPECT_EQ(s.result.policies[j].name, p.result.policies[j].name);
      EXPECT_EQ(s.result.policies[j].total().in_joules(),
                p.result.policies[j].total().in_joules());
    }
    EXPECT_EQ(s.result.cache_stats.accesses, p.result.cache_stats.accesses);
    EXPECT_EQ(s.result.cache_stats.hits(), p.result.cache_stats.hits());
  }
}

// And the JSONL telemetry (timing off) is byte-identical too.
TEST(ExperimentEngine, ParallelJsonlMatchesSerialByteExactly) {
  const test::ScratchDir dir;
  const std::string serial_path = dir / "serial.jsonl";
  const std::string parallel_path = dir / "parallel.jsonl";
  const auto spec = small_spec();
  (void)ExperimentEngine(
      {.jobs = 1, .jsonl_path = serial_path, .jsonl_timing = false})
      .run(spec);
  (void)ExperimentEngine(
      {.jobs = 4, .jsonl_path = parallel_path, .jsonl_timing = false})
      .run(spec);

  std::ifstream a(serial_path), b(parallel_path);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

// Engine results match the legacy serial loop the benches used to run.
TEST(ExperimentEngine, MatchesLegacyRunSuite) {
  SimConfig cfg;
  cfg.cnt.window = 7;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;

  const auto legacy = run_suite(cfg, kScale);

  SweepSpec spec;
  spec.base(cfg).scale(kScale).suite();
  const auto outcomes = ExperimentEngine({.jobs = 3}).run(spec);
  const auto groups = group_by_tag(outcomes);
  ASSERT_EQ(groups.size(), 1u);
  const auto results = results_of(groups[0].outcomes);

  ASSERT_EQ(results.size(), legacy.size());
  for (usize i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].workload, legacy[i].workload);
    EXPECT_EQ(results[i].energy(kPolicyCnt).in_joules(),
              legacy[i].energy(kPolicyCnt).in_joules());
    EXPECT_EQ(results[i].energy(kPolicyBaseline).in_joules(),
              legacy[i].energy(kPolicyBaseline).in_joules());
  }
  EXPECT_EQ(mean_saving(results), mean_saving(legacy));
}

TEST(ExperimentEngine, FailedJobIsIsolated) {
  std::vector<Job> jobs(3);
  jobs[0].workload = "stream_copy";
  jobs[0].scale = kScale;
  jobs[1].workload = "no_such_workload";
  jobs[1].scale = kScale;
  jobs[2].workload = "zipf_kv";
  jobs[2].scale = kScale;

  const auto outcomes = ExperimentEngine({.jobs = 2}).run(jobs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("no_such_workload"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok);

  // results_of refuses to aggregate over a failure, naming the job.
  const auto groups = group_by_tag(outcomes);
  ASSERT_EQ(groups.size(), 1u);  // all share the empty tag
  EXPECT_THROW((void)results_of(groups[0].outcomes), std::runtime_error);
}

TEST(ExperimentEngine, GroupByTagPreservesFirstAppearanceOrder) {
  std::vector<JobOutcome> outcomes(5);
  const char* tags[] = {"b", "a", "b", "c", "a"};
  for (usize i = 0; i < 5; ++i) {
    outcomes[i].job.id = i;
    outcomes[i].job.tag = tags[i];
  }
  const auto groups = group_by_tag(outcomes);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].tag, "b");
  EXPECT_EQ(groups[1].tag, "a");
  EXPECT_EQ(groups[2].tag, "c");
  EXPECT_EQ(groups[0].outcomes.size(), 2u);
  EXPECT_EQ(groups[0].outcomes[1]->job.id, 2u);
}

TEST(Options, JobsPrecedenceChain) {
  unsetenv("CNT_JOBS");
  EXPECT_EQ(jobs_from_env(0), 0u);
  EXPECT_EQ(jobs_from_env(3), 3u);

  setenv("CNT_JOBS", "6", 1);
  EXPECT_EQ(jobs_from_env(0), 6u);
  EXPECT_EQ(resolve_jobs(0), 6u);
  EXPECT_EQ(resolve_jobs(2), 2u);  // explicit beats env

  setenv("CNT_JOBS", "garbage", 1);
  EXPECT_EQ(jobs_from_env(4), 4u);

  unsetenv("CNT_JOBS");
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware fallback
  EXPECT_GE(hardware_jobs(), 1u);
}

}  // namespace
}  // namespace cnt::exec
