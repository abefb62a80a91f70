#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace cnt {
namespace {

TEST(SimConfigIo, EmptyConfigKeepsDefaults) {
  const SimConfig def;
  const SimConfig cfg = sim_config_from(Config{});
  EXPECT_EQ(cfg.cache.size_bytes, def.cache.size_bytes);
  EXPECT_EQ(cfg.cnt.window, def.cnt.window);
  EXPECT_EQ(cfg.cnt.partitions, def.cnt.partitions);
  EXPECT_EQ(cfg.with_cmos, def.with_cmos);
}

TEST(SimConfigIo, AppliesAllSections) {
  const auto ini = Config::parse_string(R"(
[cache]
size = 64k
ways = 8
line = 64
replacement = plru
write_policy = wt
alloc = nwa
idle_per_miss = 3
hit_idle_period = 0

[cnt]
window = 31
partitions = 16
fifo_depth = 4
delta_t = 0.1
fill = read-optimized
granularity = line
history = per-set
account_metadata = false
flip_aware = true

[policies]
cmos = false
static = false
ideal = true
)");
  const SimConfig cfg = sim_config_from(ini);
  EXPECT_EQ(cfg.cache.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.cache.ways, 8u);
  EXPECT_EQ(cfg.cache.replacement, ReplKind::kTreePlru);
  EXPECT_EQ(cfg.cache.write_policy, WritePolicy::kWriteThrough);
  EXPECT_EQ(cfg.cache.alloc_policy, AllocPolicy::kNoWriteAllocate);
  EXPECT_EQ(cfg.cache.idle.idle_per_miss, 3u);
  EXPECT_EQ(cfg.cache.idle.hit_idle_period, 0u);
  EXPECT_EQ(cfg.cnt.window, 31u);
  EXPECT_EQ(cfg.cnt.partitions, 16u);
  EXPECT_EQ(cfg.cnt.fifo_depth, 4u);
  EXPECT_DOUBLE_EQ(cfg.cnt.delta_t, 0.1);
  EXPECT_EQ(cfg.cnt.fill_policy, FillDirectionPolicy::kReadOptimized);
  EXPECT_EQ(cfg.cnt.write_granularity, WriteGranularity::kLine);
  EXPECT_EQ(cfg.cnt.history_scope, HistoryScope::kPerSet);
  EXPECT_FALSE(cfg.cnt.account_metadata);
  EXPECT_TRUE(cfg.cnt.flip_aware_writes);
  EXPECT_FALSE(cfg.with_cmos);
  EXPECT_FALSE(cfg.with_static);
  EXPECT_TRUE(cfg.with_ideal);
}

TEST(SimConfigIo, UnknownEnumThrows) {
  EXPECT_THROW(
      (void)sim_config_from(Config::parse_string("[cnt]\nfill = magic\n")),
      std::invalid_argument);
  EXPECT_THROW((void)sim_config_from(
                   Config::parse_string("[cache]\nreplacement = mru\n")),
               std::invalid_argument);
}

TEST(SimConfigIo, InvalidGeometryThrows) {
  EXPECT_THROW(
      (void)sim_config_from(Config::parse_string("[cache]\nsize = 1000\n")),
      std::invalid_argument);
}

TEST(SimConfigIo, OutOfRangeFaultKnobsThrowNamingTheKey) {
  const struct {
    const char* key;
    const char* ini;
  } cases[] = {
      {"fault.transient_per_read", "[fault]\ntransient_per_read = -0.1\n"},
      {"fault.transient_per_read", "[fault]\ntransient_per_read = nan\n"},
      {"fault.transient_per_read", "[fault]\ntransient_per_read = 1.5\n"},
      {"fault.stuck_at1", "[fault]\nstuck_at1 = 1.01\n"},
      {"fault.stuck_at1", "[fault]\nstuck_at1 = -0.5\n"},
      {"fault.stuck_per_mbit", "[fault]\nstuck_per_mbit = -1\n"},
  };
  for (const auto& c : cases) {
    try {
      (void)sim_config_from(Config::parse_string(c.ini));
      ADD_FAILURE() << "accepted: " << c.ini;
    } catch (const ValueError& e) {
      EXPECT_EQ(e.info().code, Errc::kRange) << c.ini;
      EXPECT_NE(e.info().message.find(std::string("'") + c.key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SimConfigIo, OutOfRangeCntKnobsThrowNamingTheKey) {
  const struct {
    const char* key;
    const char* ini;
  } cases[] = {
      {"cnt.window", "[cnt]\nwindow = 0\n"},
      {"cnt.delta_t", "[cnt]\ndelta_t = -5\n"},
      {"cnt.delta_t", "[cnt]\ndelta_t = nan\n"},
      {"cnt.delta_t", "[cnt]\ndelta_t = inf\n"},
  };
  for (const auto& c : cases) {
    try {
      (void)sim_config_from(Config::parse_string(c.ini));
      ADD_FAILURE() << "accepted: " << c.ini;
    } catch (const ValueError& e) {
      EXPECT_EQ(e.info().code, Errc::kRange) << c.ini;
      EXPECT_NE(e.info().message.find(std::string("'") + c.key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SimConfigIo, PartitionsMustSplitTheLineIntoWholeBytes) {
  for (const char* ini : {"[cnt]\npartitions = 3\n", "[cnt]\npartitions = 0\n",
                          "[cnt]\npartitions = 100\n",
                          "[cache]\nline = 32\n[cnt]\npartitions = 64\n"}) {
    try {
      (void)sim_config_from(Config::parse_string(ini));
      ADD_FAILURE() << "accepted: " << ini;
    } catch (const ValueError& e) {
      EXPECT_EQ(e.info().code, Errc::kRange) << ini;
      EXPECT_NE(e.info().message.find("'cnt.partitions'"), std::string::npos)
          << e.what();
      EXPECT_NE(e.info().message.find(" B line"), std::string::npos)
          << e.what();
    }
  }
  const SimConfig k64 =
      sim_config_from(Config::parse_string("[cnt]\npartitions = 64\n"));
  EXPECT_EQ(k64.cnt.partitions, 64u);
  // The policy constructor runs the same check.
  SimConfig bad;
  bad.cnt.partitions = 3;
  EXPECT_THROW(CntPolicy("cnt", bad.tech, geometry_of(bad.cache), bad.cnt),
               ValueError);
}

TEST(SimConfigIo, CntKnobsAcceptTheirEdges) {
  const SimConfig cfg = sim_config_from(
      Config::parse_string("[cnt]\nwindow = 1\ndelta_t = 0\n"));
  EXPECT_EQ(cfg.cnt.window, 1u);
  EXPECT_EQ(cfg.cnt.delta_t, 0.0);
}

TEST(SimConfigIo, FaultKnobsAcceptTheirClosedRanges) {
  const SimConfig cfg = sim_config_from(Config::parse_string(
      "[fault]\ntransient_per_read = 1\nstuck_at1 = 0\n"
      "stuck_per_mbit = 0\n"));
  EXPECT_EQ(cfg.fault.transient_per_read, 1.0);
  EXPECT_EQ(cfg.fault.stuck_at1_fraction, 0.0);
  EXPECT_EQ(cfg.fault.stuck_per_mbit, 0.0);
}

TEST(SimConfigIo, KnownKeysCoverSchema) {
  const auto keys = known_sim_config_keys();
  for (const char* k : {"cache.size", "cnt.window", "policies.ideal",
                        "workload.name"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), k), keys.end()) << k;
  }
}

}  // namespace
}  // namespace cnt
