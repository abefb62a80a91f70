// Unit tests for the deterministic failpoint registry
// (common/failpoint.hpp, docs/crash_consistency.md): spec parsing with
// did-you-mean diagnostics, @N trigger semantics, one-shot firing,
// environment configuration, hit-count probing and the crash action.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

/// Disarm every failpoint when a test exits, pass or fail.
struct FpGuard {
  FpGuard() { fp::clear(); }
  ~FpGuard() { fp::clear(); }
};

TEST(FailpointSpec, EntryWithoutEqualsIsSyntaxError) {
  FpGuard guard;
  try {
    fp::configure("journal.write");
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kSyntax);
    EXPECT_EQ(e.info().source, "CNT_FAILPOINTS");
    EXPECT_NE(e.info().hint.find("site=action"), std::string::npos);
  }
  EXPECT_FALSE(fp::enabled());  // a bad spec arms nothing
}

TEST(FailpointSpec, UnknownSiteGetsDidYouMean) {
  FpGuard guard;
  try {
    fp::configure("journal.wrote=crash");
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kUnknownKey);
    EXPECT_EQ(e.info().message, "unknown failpoint site 'journal.wrote'");
    EXPECT_EQ(e.info().hint, "did you mean 'journal.write'?");
  }
}

TEST(FailpointSpec, UnknownActionAndBadIndexAreValueErrors) {
  FpGuard guard;
  try {
    fp::configure("journal.write=explode");
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kValue);
    EXPECT_NE(e.info().hint.find("error:ENOSPC"), std::string::npos);
  }
  EXPECT_THROW(fp::configure("journal.write=crash@0"), ValueError);
  EXPECT_THROW(fp::configure("journal.write=crash@x"), ValueError);
  EXPECT_THROW(fp::configure("journal.write=delay:99999999"), ValueError);
}

TEST(FailpointTrigger, FiresOnNthEvaluationExactlyOnce) {
  FpGuard guard;
  fp::configure("csv.write=error:ENOSPC@2");
  ASSERT_TRUE(fp::enabled());
  EXPECT_EQ(fp::evaluate("csv.write"), fp::Action::kNone);
  EXPECT_EQ(fp::evaluate("csv.write"), fp::Action::kErrorEnospc);
  EXPECT_EQ(fp::evaluate("csv.write"), fp::Action::kNone);  // one-shot
  EXPECT_EQ(fp::hit_count("csv.write"), 3u);
}

TEST(FailpointTrigger, SitesAreIndependent) {
  FpGuard guard;
  fp::configure("csv.write=error:EIO; csv.sync=error:ENOSPC");
  EXPECT_EQ(fp::evaluate("csv.sync"), fp::Action::kErrorEnospc);
  EXPECT_EQ(fp::evaluate("csv.write"), fp::Action::kErrorEio);
  const auto armed = fp::armed();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0].site, "csv.write");
  EXPECT_EQ(armed[0].action, "error:EIO");
  EXPECT_EQ(armed[1].site, "csv.sync");
}

TEST(FailpointTrigger, ClearDisarmsEverything) {
  FpGuard guard;
  fp::configure("csv.write=error:ENOSPC");
  EXPECT_TRUE(fp::enabled());
  fp::clear();
  EXPECT_FALSE(fp::enabled());
  EXPECT_EQ(fp::check("csv.write"), fp::Action::kNone);
}

TEST(FailpointCatalog, IsSortedAndCoversEveryWriterFamily) {
  const auto& catalog = fp::site_catalog();
  EXPECT_TRUE(std::is_sorted(catalog.begin(), catalog.end()));
  for (const char* site :
       {"csv.rename", "engine.job", "journal.sync",
        "stats.write", "trace.rename", "trs.write"}) {
    EXPECT_TRUE(std::binary_search(catalog.begin(), catalog.end(),
                                   std::string(site)))
        << site << " missing from the catalog";
  }
}

// Exact pins: the grammar's vocabulary is load-bearing for the torture
// wall (tools/cnt-torture composes schedules from these strings) and for
// docs/crash_consistency.md. Growing either catalog must update this
// test, the docs and the harness together.
TEST(FailpointCatalog, SiteAndActionListsArePinned) {
  const std::vector<std::string> sites = {
      "csv.rename",   "csv.sync",      "csv.write",    "engine.job",
      "journal.rename", "journal.sync", "journal.write", "stats.rename",
      "stats.sync",   "stats.write",   "trace.rename", "trace.sync",
      "trace.write",  "trs.sync",      "trs.write",
  };
  EXPECT_EQ(fp::site_catalog(), sites);

  const std::vector<std::string> actions = {
      "crash", "delay", "error:EIO", "error:ENOSPC", "hang", "short-write",
  };
  EXPECT_EQ(fp::action_catalog(), actions);
  EXPECT_TRUE(std::is_sorted(actions.begin(), actions.end()));
}

// The `hang` action parks on the ambient cancellation token and surfaces
// Action::kCancelled once the token fires -- the watchdog's kill switch
// (docs/robustness.md). Without a token it would poll forever; that
// torture case belongs to the chaos wall, not a unit test.
TEST(FailpointHang, ParkEndsWhenTheInstalledTokenIsCancelled) {
  FpGuard guard;
  fp::configure("csv.write=hang");

  cancel::Token token;
  cancel::ScopedToken scope(token);
  std::thread canceller([&token] {
    const cancel::Token pace;
    (void)pace.wait_ms(30);
    token.cancel(cancel::Reason::kTimeout);
  });

  const auto t0 = std::chrono::steady_clock::now();
  const fp::Action got = fp::evaluate("csv.write");
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  canceller.join();

  EXPECT_EQ(got, fp::Action::kCancelled);
  EXPECT_TRUE(token.cancelled());
  EXPECT_LT(took.count(), 5000);  // parked, then woke promptly -- no spin-out
  // One-shot: the entry fired; the next write proceeds untouched.
  EXPECT_EQ(fp::evaluate("csv.write"), fp::Action::kNone);
}

TEST(FailpointEnv, ConfigureFromEnvArmsAndReportProbes) {
  FpGuard guard;
  const test::ScratchDir dir;
  const std::string report = dir / "report";
  ASSERT_EQ(::setenv("CNT_FAILPOINTS", "csv.write=error:ENOSPC@7", 1), 0);
  ASSERT_EQ(::setenv("CNT_FAILPOINT_REPORT", report.c_str(), 1), 0);
  fp::configure_from_env();
  ASSERT_EQ(::unsetenv("CNT_FAILPOINTS"), 0);
  ASSERT_EQ(::unsetenv("CNT_FAILPOINT_REPORT"), 0);

  const auto armed = fp::armed();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].site, "csv.write");
  EXPECT_EQ(armed[0].trigger_hit, 7u);

  (void)fp::evaluate("csv.write");
  (void)fp::evaluate("csv.write");
  (void)fp::evaluate("trs.sync");
  fp::write_report();
  std::ifstream in(report);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "csv.write 2\ntrs.sync 1\n");
}

TEST(FailpointProbe, ReportModeCountsWithoutArming) {
  FpGuard guard;
  const test::ScratchDir dir;
  const std::string report = dir / "probe";
  ASSERT_EQ(::setenv("CNT_FAILPOINT_REPORT", report.c_str(), 1), 0);
  fp::configure_from_env();
  ASSERT_EQ(::unsetenv("CNT_FAILPOINT_REPORT"), 0);
  EXPECT_TRUE(fp::enabled());  // probing counts as enabled
  EXPECT_EQ(fp::check("journal.write"), fp::Action::kNone);
  EXPECT_EQ(fp::hit_count("journal.write"), 1u);
}

using FailpointDeathTest = ::testing::Test;

TEST(FailpointDeathTest, CrashActionKillsTheProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        fp::configure("csv.write=crash");
        (void)fp::evaluate("csv.write");
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

}  // namespace
}  // namespace cnt
