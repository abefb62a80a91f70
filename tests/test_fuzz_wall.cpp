// The fuzz wall (docs/error_handling.md): every ingest parser, driven
// in-process with >= 10k seeded mutated inputs per format, must either
// accept the input or reject it with a structured cnt::Error -- never
// crash, hang, leak (the wall also runs under the asan preset) or abort.
// Outcome digests are asserted byte-identical across reruns so a wall
// run is fully reproducible from (seed, runs, corpus).
#include "cnt-fuzz/fuzzer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"

namespace cnt::fuzz {
namespace {

constexpr u64 kWallSeed = 20260805;
constexpr u64 kWallRuns = 10000;

std::string corpus_dir(FuzzTarget t) {
  return std::string(CNT_FUZZ_CORPUS_ROOT) + "/" +
         std::string(target_name(t));
}

class FuzzWall : public ::testing::TestWithParam<FuzzTarget> {};

TEST_P(FuzzWall, CorpusContractHolds) {
  // seed_* entries are valid by construction; bad_* entries must be
  // rejected with a structured error -- never accepted, never a crash.
  const auto corpus = load_corpus(corpus_dir(GetParam()));
  bool saw_seed = false;
  bool saw_bad = false;
  for (const CorpusEntry& entry : corpus) {
    const FuzzOutcome outcome = classify(GetParam(), entry.data);
    if (entry.expect_bad) {
      saw_bad = true;
      EXPECT_EQ(outcome.cls, FuzzOutcome::Cls::kRejected)
          << entry.name << " -> " << outcome.label;
    } else {
      saw_seed = true;
      EXPECT_EQ(outcome.cls, FuzzOutcome::Cls::kAccepted)
          << entry.name << " -> " << outcome.label;
    }
  }
  EXPECT_TRUE(saw_seed) << "corpus has no seed_* entries";
  EXPECT_TRUE(saw_bad) << "corpus has no bad_* entries";
}

TEST_P(FuzzWall, TenThousandMutantsNoCrashes) {
  const auto corpus = load_corpus(corpus_dir(GetParam()));
  const FuzzReport report =
      fuzz_target(GetParam(), corpus, kWallSeed, kWallRuns);
  EXPECT_EQ(report.runs, kWallRuns);
  EXPECT_EQ(report.crashed, 0u)
      << report.first_crash_what << "\ninput: " << report.first_crash_input;
  // The corpus seeds valid inputs, so some mutants must survive parsing
  // and some must be rejected -- an all-one-way wall tests nothing.
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected, 0u);
}

TEST_P(FuzzWall, RerunsAreByteIdentical) {
  const auto corpus = load_corpus(corpus_dir(GetParam()));
  const FuzzReport a = fuzz_target(GetParam(), corpus, kWallSeed, kWallRuns);
  const FuzzReport b = fuzz_target(GetParam(), corpus, kWallSeed, kWallRuns);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.crashed, b.crashed);
  // A different seed must explore a different stream.
  const FuzzReport c =
      fuzz_target(GetParam(), corpus, kWallSeed + 1, kWallRuns);
  EXPECT_NE(a.digest, c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, FuzzWall,
    ::testing::ValuesIn(kAllTargets),
    [](const ::testing::TestParamInfo<FuzzTarget>& param) {
      return std::string(target_name(param.param));
    });

TEST(FuzzMutator, IsDeterministicPerSeed) {
  const std::vector<CorpusEntry> corpus = {
      {"seed_a", "[s]\nk = 1\n", false},
      {"seed_b", "R 1000 8\n", false},
  };
  Rng r1(42);
  Rng r2(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(mutate(r1, corpus[0].data, corpus),
              mutate(r2, corpus[0].data, corpus));
  }
}

TEST(FuzzCorpus, HexDecodingRoundTrips) {
  // The streamed-trace corpus is stored hex-encoded; decoded entries must
  // start with the trace magic (seed entries) and load in sorted order.
  const auto corpus = load_corpus(corpus_dir(FuzzTarget::kTraceStream));
  for (usize i = 1; i < corpus.size(); ++i) {
    EXPECT_LT(corpus[i - 1].name, corpus[i].name);
  }
  for (const CorpusEntry& entry : corpus) {
    if (entry.name.rfind("seed_", 0) == 0) {
      ASSERT_GE(entry.data.size(), 8u) << entry.name;
      EXPECT_EQ(entry.data.substr(0, 6), "CNTTRS") << entry.name;
    }
  }
}

TEST(FuzzCorpus, MissingDirectoryIsStructuredError) {
  try {
    (void)load_corpus(corpus_dir(FuzzTarget::kIni) + "/nope");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kIo);
  }
}

}  // namespace
}  // namespace cnt::fuzz
