#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_config.hpp"

namespace cnt {
namespace {

constexpr usize kSets = 64;
constexpr usize kWays = 4;
constexpr usize kLineBytes = 64;
constexpr usize kPartitions = 8;

FaultConfig stuck_config(double per_mbit, ProtectionScheme scheme) {
  FaultConfig cfg;
  cfg.stuck_per_mbit = per_mbit;
  cfg.stuck_at1_fraction = 1.0;  // all stuck-at-1: all-zero data conflicts
  cfg.transient_per_read = 0.0;
  cfg.protection = scheme;
  cfg.seed = 0xFA013;
  return cfg;
}

// The acceptance matrix for permanent data faults: fill every line with
// all-zeros (conflicting with every stuck-at-1 cell), read it back, and
// check the protection outcome against the per-line defect count.
TEST(FaultCampaign, SecdedCorrectsEverySingleBitDataFault) {
  FaultCampaign c(stuck_config(480.0, ProtectionScheme::kSecded), kSets,
                  kWays, kLineBytes, kPartitions);
  ASSERT_GT(c.stats().stuck_data_cells, 0u);

  usize singles = 0;
  for (u32 set = 0; set < kSets; ++set) {
    for (u32 way = 0; way < kWays; ++way) {
      std::vector<u8> line(kLineBytes, 0);
      c.on_fill(set, way, line);
      const usize stuck = c.stuck_in_line(set, way);
      const auto rep = c.on_read(set, way, line);
      EXPECT_EQ(rep.flips, stuck);
      if (stuck == 1) {
        ++singles;
        EXPECT_EQ(rep.corrected, 1u);
        EXPECT_EQ(rep.detected, 0u);
        EXPECT_EQ(rep.silent, 0u);
        // The read-out value was repaired back to the fill image.
        for (const u8 b : line) EXPECT_EQ(b, 0u);
        // The cell is still stuck: the next read pays the correction again.
        const auto again = c.on_read(set, way, line);
        EXPECT_EQ(again.corrected, 1u);
      } else if (stuck == 2) {
        EXPECT_EQ(rep.detected, 1u);  // refetch recovery
        for (const u8 b : line) EXPECT_EQ(b, 0u);
      }
    }
  }
  EXPECT_GT(singles, 10u) << "density too low to exercise the single-bit case";
  EXPECT_GT(c.stats().corrected_bits, 0u);
}

TEST(FaultCampaign, ParityDetectsButNeverCorrects) {
  FaultCampaign c(stuck_config(480.0, ProtectionScheme::kParity), kSets,
                  kWays, kLineBytes, kPartitions);
  u64 detected = 0;
  for (u32 set = 0; set < kSets; ++set) {
    for (u32 way = 0; way < kWays; ++way) {
      std::vector<u8> line(kLineBytes, 0);
      c.on_fill(set, way, line);
      const auto rep = c.on_read(set, way, line);
      EXPECT_EQ(rep.corrected, 0u);   // parity has no correction capability
      EXPECT_EQ(rep.silent % 2, 0u);  // only even-weight groups escape
      detected += rep.detected;
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_EQ(c.stats().corrected_bits, 0u);
}

TEST(FaultCampaign, UnprotectedStuckFaultsAreSilent) {
  FaultCampaign c(stuck_config(480.0, ProtectionScheme::kNone), kSets, kWays,
                  kLineBytes, kPartitions);
  u64 silent_bits = 0;
  for (u32 set = 0; set < kSets; ++set) {
    for (u32 way = 0; way < kWays; ++way) {
      std::vector<u8> line(kLineBytes, 0);
      c.on_fill(set, way, line);
      const auto rep = c.on_read(set, way, line);
      EXPECT_EQ(rep.corrected, 0u);
      EXPECT_EQ(rep.detected, 0u);
      EXPECT_EQ(rep.silent, rep.flips);
      silent_bits += rep.silent;
      // Silent corruption really is served: stuck-at-1 bits read as 1.
      usize ones = 0;
      for (const u8 b : line) ones += static_cast<usize>(std::popcount(b));
      EXPECT_EQ(ones, c.stuck_in_line(set, way));
    }
  }
  EXPECT_GT(silent_bits, 0u);
  EXPECT_EQ(c.stats().silent_bits, silent_bits);
}

TEST(FaultCampaign, TransientReadsFollowSecdedClassification) {
  FaultConfig cfg;
  cfg.transient_per_read = 0.005;
  cfg.protection = ProtectionScheme::kSecded;
  cfg.seed = 77;
  FaultCampaign c(cfg, kSets, kWays, kLineBytes, kPartitions);

  u64 flips = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (u32 set = 0; set < kSets; ++set) {
      std::vector<u8> line(kLineBytes, 0);
      c.on_fill(set, 0, line);
      const auto rep = c.on_read(set, 0, line);
      flips += rep.flips;
      if (rep.flips == 1) {
        EXPECT_EQ(rep.corrected, 1u);
      } else if (rep.flips == 2) {
        EXPECT_EQ(rep.detected, 1u);
      } else if (rep.flips >= 3) {
        EXPECT_EQ(rep.silent, rep.flips);
      }
    }
  }
  EXPECT_GT(flips, 0u);
  EXPECT_EQ(c.stats().transient_data_flips, flips);
}

TEST(FaultCampaign, SecdedCorrectsEverySingleDirectionBitFault) {
  // High density so the small direction-bit array (sets*ways*K cells)
  // receives defects at all.
  FaultCampaign c(stuck_config(20000.0, ProtectionScheme::kSecded), kSets,
                  kWays, kLineBytes, kPartitions);
  ASSERT_GT(c.stats().stuck_dir_cells, 0u);

  usize singles = 0;
  for (u32 set = 0; set < kSets; ++set) {
    for (u32 way = 0; way < kWays; ++way) {
      const auto [mask, values] = c.stuck_directions(set, way);
      if (std::popcount(mask) != 1) continue;
      ++singles;
      // Write the opposite of the stuck value so the cell really diverges.
      c.write_directions(set, way, 0);  // stuck-at-1 cells flip to 1
      const auto dr = c.read_directions(set, way);
      EXPECT_EQ(dr.report.flips, 1u);
      EXPECT_EQ(dr.report.corrected, 1u);
      EXPECT_EQ(dr.effective, 0u) << "decoder must see the written mask";
      // Still stuck: the next read corrects it again.
      const auto again = c.read_directions(set, way);
      EXPECT_EQ(again.report.corrected, 1u);
      EXPECT_EQ(again.effective, 0u);
    }
  }
  EXPECT_GT(singles, 0u);
  EXPECT_EQ(c.stats().dir_silent_bits, 0u);
}

TEST(FaultCampaign, ParityDetectsEveryDirectionBitFault) {
  FaultCampaign c(stuck_config(20000.0, ProtectionScheme::kParity), kSets,
                  kWays, kLineBytes, kPartitions);
  for (u32 set = 0; set < kSets; ++set) {
    for (u32 way = 0; way < kWays; ++way) {
      const auto [mask, values] = c.stuck_directions(set, way);
      if (mask == 0) continue;
      c.write_directions(set, way, ~values & mask);
      const auto dr = c.read_directions(set, way);
      // Each flipped direction bit makes its partition group odd: always
      // detected, never corrected, never silent.
      EXPECT_EQ(dr.report.detected, dr.report.flips);
      EXPECT_EQ(dr.report.corrected, 0u);
      EXPECT_EQ(dr.report.silent, 0u);
      EXPECT_EQ(dr.effective, ~values & mask);
    }
  }
  EXPECT_EQ(c.stats().dir_silent_bits, 0u);
}

TEST(FaultCampaign, UnprotectedDirectionFaultDecodesFlippedMask) {
  FaultCampaign c(stuck_config(20000.0, ProtectionScheme::kNone), kSets,
                  kWays, kLineBytes, kPartitions);
  u64 silent = 0;
  for (u32 set = 0; set < kSets; ++set) {
    for (u32 way = 0; way < kWays; ++way) {
      const auto [mask, values] = c.stuck_directions(set, way);
      if (mask == 0) continue;
      c.write_directions(set, way, 0);
      const auto dr = c.read_directions(set, way);
      // The decoder runs with the corrupted mask: whole partitions invert.
      EXPECT_EQ(dr.effective, values);
      EXPECT_EQ(dr.report.silent, dr.report.flips);
      silent += dr.report.silent;
    }
  }
  EXPECT_GT(silent, 0u);
  EXPECT_EQ(c.stats().dir_silent_bits, silent);
}

TEST(FaultCampaign, DeterministicForSeed) {
  const FaultConfig cfg = [] {
    FaultConfig f;
    f.stuck_per_mbit = 200.0;
    f.transient_per_read = 0.002;
    f.protection = ProtectionScheme::kSecded;
    f.seed = 1234;
    return f;
  }();
  FaultCampaign a(cfg, kSets, kWays, kLineBytes, kPartitions);
  FaultCampaign b(cfg, kSets, kWays, kLineBytes, kPartitions);
  for (u32 set = 0; set < kSets; ++set) {
    std::vector<u8> la(kLineBytes, 0xA5), lb(kLineBytes, 0xA5);
    a.on_fill(set, 1, la);
    b.on_fill(set, 1, lb);
    const auto ra = a.on_read(set, 1, la);
    const auto rb = b.on_read(set, 1, lb);
    EXPECT_EQ(ra.flips, rb.flips);
    EXPECT_EQ(la, lb);
  }
  EXPECT_EQ(a.stats().transient_data_flips, b.stats().transient_data_flips);
  EXPECT_EQ(a.stats().silent_bits, b.stats().silent_bits);
}

// ---- Transient sampling: the fast-reject sampler is exact ---------------

// The probabilities and per-read limits the equivalence tests sweep: the
// direction-bit limits K and the data limits (line bits of 8..256 B
// lines). 1e-300 makes the formula's quotient overflow u64; 1.0 flips
// every bit without drawing.
constexpr double kProbabilities[] = {1e-300, 1e-12, 1e-7, 1e-6,
                                     1e-4,   5e-3,  0.5,  1.0};
constexpr u64 kLimits[] = {1,  2,   4,   8,   16,   32,  64,
                           64, 128, 256, 512, 1024, 2048};

// The formula the campaign evaluated on every draw before the fast reject,
// as the decision a read makes of it: the gap when it falls inside the
// limit, else the limit ("no flip"). The quotient is compared before the
// cast, so gaps beyond u64 (tiny p) stay defined; below the limit this is
// the old cast exactly.
u64 formula_skip(double u, double p, u64 limit) {
  if (p >= 1.0) return 0;
  const double gap = std::log1p(-u) / std::log1p(-p);
  return gap < static_cast<double>(limit) ? static_cast<u64>(gap) : limit;
}

TEST(TransientSampler, MatchesFormulaAcrossTheClearBoundary) {
  usize fast_rejects = 0;
  for (const double p : kProbabilities) {
    for (const u64 limit : kLimits) {
      const TransientSampler s(p, limit);
      const double boundary =
          -std::expm1(static_cast<double>(limit) * std::log1p(-p));
      // Sweep 256 ulps either side of both the fast-reject threshold and
      // the unmargined boundary it guards.
      for (const double centre : {s.u_clear(), boundary}) {
        if (!(centre > 0.0 && centre < 1.0)) continue;
        double lo = centre;
        for (int i = 0; i < 256; ++i) lo = std::nextafter(lo, 0.0);
        double u = lo;
        for (int i = 0; i <= 512 && u < 1.0; ++i) {
          const u64 want = formula_skip(u, p, limit);
          ASSERT_EQ(s.skip_for(u), want)
              << "p=" << p << " limit=" << limit << " u=" << u;
          if (u >= s.u_clear()) {
            ++fast_rejects;
            ASSERT_EQ(want, limit) << "fast reject of a flip, p=" << p;
          }
          u = std::nextafter(u, 1.0);
        }
      }
    }
  }
  EXPECT_GT(fast_rejects, 0u);
}

TEST(TransientSampler, MatchesFormulaOnSeededDraws) {
  constexpr usize kDraws = 1'000'000;
  for (const double p : kProbabilities) {
    std::vector<TransientSampler> samplers;
    for (const u64 limit : kLimits) samplers.emplace_back(p, limit);
    Rng rng(0x5EED ^ std::bit_cast<u64>(p));
    usize mismatches = 0;
    for (usize i = 0; i < kDraws; ++i) {
      const usize k = i % samplers.size();
      const double u = rng.uniform01();
      if (samplers[k].skip_for(u) != formula_skip(u, p, kLimits[k])) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "p=" << p;
  }
}

TEST(TransientSampler, ConsumesOneDrawUnlessEveryBitFlips) {
  for (const double p : kProbabilities) {
    const TransientSampler s(p, 512);
    Rng a(77), b(77);
    for (int i = 0; i < 1000; ++i) (void)s.next(a);
    if (p < 1.0) {
      for (int i = 0; i < 1000; ++i) (void)b.uniform01();
    }
    EXPECT_EQ(a.next(), b.next()) << "p=" << p;
  }
}

// The campaign's transient loops as they were before TransientSampler,
// verbatim (stream constants and geometric_skip from campaign.cpp),
// driving the same stuck maps under ProtectionScheme::kNone so every flip
// lands in the stats as silent.
class FormulaCampaign {
 public:
  FormulaCampaign(const FaultCampaign& twin, const FaultConfig& cfg)
      : twin_(twin),
        cfg_(cfg),
        data_rng_(cfg.seed ^ 0x165667B19E3779F9ull),
        dir_rng_(cfg.seed ^ 0x27D4EB2F165667C5ull),
        written_(kSets * kWays, 0),
        stored_(kSets * kWays, 0) {
    stats_.stuck_data_cells = twin.data_stuck().size();
    stats_.stuck_dir_cells = twin.dir_stuck().size();
  }

  void on_read(u32 set, u32 way, std::span<u8> stored) {
    const u64 line_bits = kLineBytes * 8;
    const u64 base = (static_cast<u64>(set) * kWays + way) * line_bits;
    u32 flips = 0;
    twin_.data_stuck().for_range(base, line_bits, [&](usize off, bool value) {
      const bool cur = (stored[off >> 3] >> (off & 7)) & 1u;
      if (cur != value) {
        stored[off >> 3] ^= static_cast<u8>(1u << (off & 7));
        ++flips;
      }
    });
    if (cfg_.transient_per_read > 0.0) {
      u64 bit = geometric_skip(data_rng_, cfg_.transient_per_read);
      while (bit < line_bits) {
        if (twin_.data_stuck().count_in(base + bit, 1) == 0) {
          stored[bit >> 3] ^= static_cast<u8>(1u << (bit & 7));
          ++flips;
          ++stats_.transient_data_flips;
        }
        bit += 1 + geometric_skip(data_rng_, cfg_.transient_per_read);
      }
    }
    if (flips == 0) return;
    ++stats_.faulty_reads;
    stats_.silent_bits += flips;
  }

  void write_directions(u32 set, u32 way, u64 dirs) {
    const usize li = static_cast<usize>(set) * kWays + way;
    written_[li] = dirs;
    twin_.dir_stuck().for_range(li * kPartitions, kPartitions,
                                [&](usize off, bool value) {
                                  const u64 m = 1ull << off;
                                  dirs = value ? (dirs | m) : (dirs & ~m);
                                });
    stored_[li] = dirs;
  }

  void read_directions(u32 set, u32 way) {
    const usize li = static_cast<usize>(set) * kWays + way;
    const u64 base = li * kPartitions;
    u64 stored = stored_[li];
    if (cfg_.transient_per_read > 0.0) {
      u64 bit = geometric_skip(dir_rng_, cfg_.transient_per_read);
      while (bit < kPartitions) {
        if (twin_.dir_stuck().count_in(base + bit, 1) == 0) {
          stored ^= 1ull << bit;
          ++stats_.transient_dir_flips;
        }
        bit += 1 + geometric_skip(dir_rng_, cfg_.transient_per_read);
      }
      stored_[li] = stored;
    }
    const u32 flips = static_cast<u32>(std::popcount(stored ^ written_[li]));
    stats_.dir_flips += flips;
    stats_.dir_silent_bits += flips;
  }

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  static u64 geometric_skip(Rng& rng, double p) {
    if (p >= 1.0) return 0;
    const double u = rng.uniform01();  // [0, 1)
    // floor(log(1-u) / log(1-p)); both logs are negative.
    return static_cast<u64>(std::log1p(-u) / std::log1p(-p));
  }

  const FaultCampaign& twin_;
  FaultConfig cfg_;
  Rng data_rng_;
  Rng dir_rng_;
  std::vector<u64> written_;
  std::vector<u64> stored_;
  FaultStats stats_;
};

void expect_same_stats(const FaultStats& a, const FaultStats& b, double p) {
  EXPECT_EQ(a.stuck_data_cells, b.stuck_data_cells) << p;
  EXPECT_EQ(a.stuck_dir_cells, b.stuck_dir_cells) << p;
  EXPECT_EQ(a.transient_data_flips, b.transient_data_flips) << p;
  EXPECT_EQ(a.transient_dir_flips, b.transient_dir_flips) << p;
  EXPECT_EQ(a.faulty_reads, b.faulty_reads) << p;
  EXPECT_EQ(a.corrected_bits, b.corrected_bits) << p;
  EXPECT_EQ(a.detected_events, b.detected_events) << p;
  EXPECT_EQ(a.silent_bits, b.silent_bits) << p;
  EXPECT_EQ(a.dir_flips, b.dir_flips) << p;
  EXPECT_EQ(a.dir_corrected_bits, b.dir_corrected_bits) << p;
  EXPECT_EQ(a.dir_detected_events, b.dir_detected_events) << p;
  EXPECT_EQ(a.dir_silent_bits, b.dir_silent_bits) << p;
}

// Replays `reads` line reads (data and direction bits, with periodic
// refills and direction rewrites) through the campaign and through the
// verbatim formula loops, and requires identical stats and line images.
void expect_campaign_matches_formula(double p, usize reads) {
  FaultConfig cfg;
  cfg.stuck_per_mbit = 200.0;
  cfg.transient_per_read = p;
  cfg.protection = ProtectionScheme::kNone;
  cfg.seed = 0xFA014;
  FaultCampaign camp(cfg, kSets, kWays, kLineBytes, kPartitions);
  FormulaCampaign ref(camp, cfg);
  ASSERT_GT(camp.stats().stuck_data_cells, 0u);

  std::vector<u8> got(kSets * kWays * kLineBytes);
  Rng fill(9);
  for (u8& b : got) b = fill.next_byte();
  std::vector<u8> want = got;
  for (usize i = 0; i < reads; ++i) {
    const u32 set = static_cast<u32>((i * 7) % kSets);
    const u32 way = static_cast<u32>((i / kSets) % kWays);
    const usize off = (static_cast<usize>(set) * kWays + way) * kLineBytes;
    const std::span<u8> g(got.data() + off, kLineBytes);
    const std::span<u8> w(want.data() + off, kLineBytes);
    if (i % 64 == 0) {
      const u64 dirs = fill.next() & 0xFF;
      camp.write_directions(set, way, dirs);
      ref.write_directions(set, way, dirs);
    }
    (void)camp.on_read(set, way, g);
    ref.on_read(set, way, w);
    (void)camp.read_directions(set, way);
    ref.read_directions(set, way);
  }
  expect_same_stats(camp.stats(), ref.stats(), p);
  EXPECT_EQ(got, want) << p;
}

TEST(TransientSampler, CampaignMatchesFormulaLoopOverAMillionReads) {
  expect_campaign_matches_formula(1e-4, 1'000'000);
}

TEST(TransientSampler, CampaignMatchesFormulaLoopAcrossRates) {
  // Every flip costs the formula loop one step, so dense rates replay
  // fewer reads for the same work.
  expect_campaign_matches_formula(1e-7, 200'000);
  expect_campaign_matches_formula(1e-6, 200'000);
  expect_campaign_matches_formula(5e-3, 100'000);
  expect_campaign_matches_formula(0.5, 5'000);
  expect_campaign_matches_formula(1.0, 2'000);
}

TEST(TransientSampler, TinyRateNeverReachesTheOverflowingCast) {
  // At p = 1e-300 every nonzero draw's gap (~1e284 bits) overflows u64:
  // the formula-only loop cast it anyway (undefined behaviour). The fast
  // reject answers those draws without the quotient, so the campaign runs
  // clean under UBSan and, like the exact process, flips nothing.
  FaultConfig cfg;
  cfg.transient_per_read = 1e-300;
  cfg.protection = ProtectionScheme::kSecded;
  FaultCampaign camp(cfg, kSets, kWays, kLineBytes, kPartitions);
  std::vector<u8> line(kLineBytes, 0x3C);
  for (usize i = 0; i < 1'000'000; ++i) {
    const u32 set = static_cast<u32>(i % kSets);
    (void)camp.on_read(set, 0, line);
    (void)camp.read_directions(set, 0);
  }
  EXPECT_EQ(camp.stats().transient_data_flips, 0u);
  EXPECT_EQ(camp.stats().transient_dir_flips, 0u);
  EXPECT_EQ(line, std::vector<u8>(kLineBytes, 0x3C));
}

}  // namespace
}  // namespace cnt
