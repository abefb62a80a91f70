#include "cnt/predictor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace cnt {
namespace {

const BitEnergies kCnfet = TechParams::cnfet().cell;

Predictor make_predictor(usize window = 15, usize k = 8) {
  return Predictor(kCnfet, PartitionScheme(64, k), window);
}

/// One access to a line holding `line`, fed as CntPolicy feeds it: the
/// line's history counters, its directions and its raw partition counts.
PredictorDecision access(const Predictor& p, LineState& st, bool is_write,
                         const std::vector<u8>& line) {
  return p.on_access(st.hist, st.directions, is_write,
                     partition_ones(p.scheme(), line));
}

TEST(Predictor, HistoryBitsMatchPaper) {
  // W=15: two 4-bit counters -> 8 history bits ("2*log2(W)").
  EXPECT_EQ(make_predictor(15).history_bits(), 8u);
  EXPECT_EQ(make_predictor(16).history_bits(), 8u);  // counts 0..15
  EXPECT_EQ(make_predictor(17).history_bits(), 10u);
}

TEST(Predictor, NoDecisionBeforeWindowCompletes) {
  const auto p = make_predictor(15);
  LineState st;
  std::vector<u8> line(64, 0);
  for (int i = 0; i < 14; ++i) {
    const auto d = access(p, st, false, line);
    EXPECT_FALSE(d.window_completed);
  }
  EXPECT_EQ(st.hist.a_num, 14);
  const auto d = access(p, st, false, line);
  EXPECT_TRUE(d.window_completed);
  EXPECT_EQ(st.hist.a_num, 0);  // counters reset at the boundary
  EXPECT_EQ(st.hist.wr_num, 0);
}

TEST(Predictor, CountsWritesSeparately) {
  const auto p = make_predictor(10);
  LineState st;
  std::vector<u8> line(64, 0);
  for (int i = 0; i < 6; ++i) (void)access(p, st, false, line);
  for (int i = 0; i < 3; ++i) (void)access(p, st, true, line);
  EXPECT_EQ(st.hist.a_num, 9);
  EXPECT_EQ(st.hist.wr_num, 3);
}

TEST(Predictor, ReadOnlyZeroLineFlipsAllPartitions) {
  // All-zero stored data + read-only window: every partition should invert
  // (stored '1's are cheap to read).
  const auto p = make_predictor(15, 8);
  LineState st;
  std::vector<u8> line(64, 0);
  PredictorDecision last;
  for (int i = 0; i < 15; ++i) last = access(p, st, false, line);
  ASSERT_TRUE(last.window_completed);
  EXPECT_FALSE(last.write_intensive);
  EXPECT_TRUE(last.switch_requested);
  EXPECT_EQ(last.new_directions, 0xFFu);
  EXPECT_EQ(last.partitions_flipped, 8u);
}

TEST(Predictor, WriteOnlyZeroLineKeepsEncoding) {
  // All-zero data is already optimal for writes (wr0 is cheap).
  const auto p = make_predictor(15, 8);
  LineState st;
  std::vector<u8> line(64, 0);
  PredictorDecision last;
  for (int i = 0; i < 15; ++i) last = access(p, st, true, line);
  ASSERT_TRUE(last.window_completed);
  EXPECT_TRUE(last.write_intensive);
  EXPECT_FALSE(last.switch_requested);
}

TEST(Predictor, RespectsExistingDirections) {
  // A line already stored inverted (directions all-ones) with logical
  // all-zero data holds stored all-ones -- optimal for reads, so a
  // read-only window requests nothing.
  const auto p = make_predictor(15, 8);
  LineState st;
  st.directions = 0xFF;
  std::vector<u8> line(64, 0);
  PredictorDecision last;
  for (int i = 0; i < 15; ++i) last = access(p, st, false, line);
  ASSERT_TRUE(last.window_completed);
  EXPECT_FALSE(last.switch_requested);
  EXPECT_EQ(last.new_directions, 0xFFu);
}

TEST(Predictor, MixedLineFlipsOnlyPoorPartitions) {
  // Partition 0 all-ones, partitions 1..7 all-zero, read-only window:
  // only the zero partitions flip (partition 0 already reads cheap).
  const auto p = make_predictor(15, 8);
  LineState st;
  std::vector<u8> line(64, 0);
  for (usize i = 0; i < 8; ++i) line[i] = 0xFF;
  PredictorDecision last;
  for (int i = 0; i < 15; ++i) last = access(p, st, false, line);
  ASSERT_TRUE(last.window_completed);
  EXPECT_EQ(last.new_directions, 0xFEu);
  EXPECT_EQ(last.partitions_flipped, 7u);
}

TEST(Predictor, PartitionedBeatsWholeLineOnMixedData) {
  // Fig. 2's argument: with half the line dense and half sparse, whole-line
  // encoding must make a compromise; partitioned encoding flips exactly the
  // poor half. Count requested flips at K=1 vs K=8.
  std::vector<u8> line(64, 0);
  for (usize i = 32; i < 64; ++i) line[i] = 0xFF;  // upper half dense

  LineState st1, st8;
  const auto p1 = make_predictor(15, 1);
  const auto p8 = make_predictor(15, 8);
  PredictorDecision d1, d8;
  for (int i = 0; i < 15; ++i) {
    d1 = access(p1, st1, false, line);
    d8 = access(p8, st8, false, line);
  }
  // Whole-line: the line has exactly half ones; no switch is profitable.
  EXPECT_FALSE(d1.switch_requested);
  // Partitioned: the four sparse partitions flip.
  EXPECT_TRUE(d8.switch_requested);
  EXPECT_EQ(d8.new_directions, 0x0Fu);
}

TEST(Predictor, WindowOfOneFiresEveryAccess) {
  const auto p = make_predictor(1, 8);
  LineState st;
  std::vector<u8> line(64, 0);
  for (int i = 0; i < 5; ++i) {
    const auto d = access(p, st, false, line);
    EXPECT_TRUE(d.window_completed);
  }
}

TEST(Predictor, DeterministicAcrossIdenticalRuns) {
  const auto p = make_predictor(15, 8);
  Rng rng(5);
  std::vector<u8> line(64);
  for (auto& b : line) b = rng.next_byte();

  LineState a, b2;
  for (int i = 0; i < 45; ++i) {
    const bool w = (i % 3) == 0;
    const auto da = access(p, a, w, line);
    const auto db = access(p, b2, w, line);
    EXPECT_EQ(da.window_completed, db.window_completed);
    EXPECT_EQ(da.new_directions, db.new_directions);
  }
}

}  // namespace
}  // namespace cnt
