#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

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

/// The ValueError sim_config_from throws for `ini`; fails the test when
/// it accepts `ini` or throws anything else.
ErrorInfo refusal(const std::string& ini) {
  try {
    (void)sim_config_from(Config::parse_string(ini));
    ADD_FAILURE() << "accepted: " << ini;
  } catch (const ValueError& e) {
    return e.info();
  }
  return {};
}

TEST(SimConfigIo, UnknownEnumThrows) {
  const ErrorInfo fill = refusal("[cnt]\nfill = magic\n");
  EXPECT_EQ(fill.code, Errc::kValue);
  EXPECT_EQ(fill.message, "key 'cnt.fill' has unknown value 'magic'");
  EXPECT_EQ(fill.hint,
            "use one of as-is/min-write/read-optimized/by-miss-type");
  const ErrorInfo repl = refusal("[cache]\nreplacement = mru\n");
  EXPECT_EQ(repl.code, Errc::kValue);
  EXPECT_EQ(repl.hint, "use one of lru/plru/tree-plru/fifo/random");
  EXPECT_EQ(refusal("[fault]\nprotection = ecc\n").hint,
            "use one of none/parity/secded");
}

TEST(SimConfigIo, LongEnumSpellingsParse) {
  const SimConfig c = sim_config_from(Config::parse_string(
      "[cache]\nwrite_policy = write-through\nalloc = no-write-allocate\n"
      "replacement = tree-plru\n[cnt]\nfill = min-write\n"));
  EXPECT_EQ(c.cache.write_policy, WritePolicy::kWriteThrough);
  EXPECT_EQ(c.cache.alloc_policy, AllocPolicy::kNoWriteAllocate);
  EXPECT_EQ(c.cache.replacement, ReplKind::kTreePlru);
  EXPECT_EQ(c.cnt.fill_policy, FillDirectionPolicy::kMinWriteEnergy);
}

TEST(SimConfigIo, InvalidGeometryThrows) {
  const ErrorInfo e = refusal("[cache]\nsize = 1000\n");
  EXPECT_EQ(e.code, Errc::kRange);
  EXPECT_EQ(e.message, "L1D: size must be a multiple of ways*line_bytes");
  // ways * line wraps to 0 in 64 bits: refused, not a division by zero.
  EXPECT_EQ(refusal("[cache]\nways = 288230376151711744\n").message,
            "L1D: size must be a multiple of ways*line_bytes");
}

TEST(SimConfigIo, U32KeysRefuseValuesThatWouldWrap) {
  for (const char* key : {"addr_bits", "idle_per_miss", "hit_idle_period"}) {
    for (const char* value :
         {"4294967296", "4294967336", "9223372036854775807"}) {
      const std::string ini =
          std::string("[cache]\n") + key + " = " + value + "\n";
      const ErrorInfo e = refusal(ini);
      EXPECT_EQ(e.code, Errc::kRange) << ini;
      EXPECT_EQ(e.message, std::string("key 'cache.") + key +
                               "' has out-of-range value '" + value + "'");
      EXPECT_EQ(e.hint, "use at most 4294967295");
    }
  }
  const SimConfig max = sim_config_from(Config::parse_string(
      "[cache]\nidle_per_miss = 4294967295\nhit_idle_period = 4294967295\n"
      "addr_bits = 64\n"));
  EXPECT_EQ(max.cache.idle.idle_per_miss, 4294967295u);
  EXPECT_EQ(max.cache.idle.hit_idle_period, 4294967295u);
  EXPECT_EQ(max.cache.addr_bits, 64u);
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

/// Every leaf member of a SimConfig, by structured binding. A member added
/// to SimConfig, CacheConfig, IdleModel, CntConfig or FaultConfig changes
/// an arity below and stops this file compiling until it is listed here;
/// the tests below then fail until the field table reads and hashes it.
auto leaves(SimConfig& s) {
  auto& [cache, tech, cmos_tech, cnt, fault, cmos, stat, ideal] = s;
  auto& [name, size, ways, line, addr_bits, write_policy, alloc, replacement,
         idle, replacement_seed, way_prediction, sector_writeback] = cache;
  auto& [idle_per_miss, hit_idle_period] = idle;
  auto& [window, partitions, fifo_depth, delta_t, fill, granularity, history,
         account_metadata, flip_aware, zero_line] = cnt;
  auto& [stuck_per_mbit, stuck_at1, transient_per_read, protection,
         protect_directions, seed] = fault;
  return std::tie(name, size, ways, line, addr_bits, write_policy, alloc,
                  replacement, idle_per_miss, hit_idle_period,
                  replacement_seed, way_prediction, sector_writeback, tech,
                  cmos_tech, window, partitions, fifo_depth, delta_t, fill,
                  granularity, history, account_metadata, flip_aware,
                  zero_line, cmos, stat, ideal, stuck_per_mbit, stuck_at1,
                  transient_per_read, protection, protect_directions, seed);
}

constexpr usize kLeaves =
    std::tuple_size_v<decltype(leaves(std::declval<SimConfig&>()))>;
/// cache.name, cache.replacement_seed, tech and cmos_tech: hashed, not
/// parsed.
constexpr usize kUnparsedLeaves = 4;

/// Call `f(i, a_i, b_i)` on the i-th leaves of `a` and `b`.
template <class F>
void for_each_leaf(SimConfig& a, SimConfig& b, F&& f) {
  std::apply(
      [&](auto&... x) {
        std::apply(
            [&](auto&... y) {
              usize i = 0;
              (f(i++, x, y), ...);
            },
            leaves(b));
      },
      leaves(a));
}

template <class T>
void bump(T& m) {
  if constexpr (std::is_same_v<T, bool>) {
    m = !m;
  } else if constexpr (std::is_enum_v<T>) {
    m = static_cast<T>(static_cast<u64>(m) + 1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    m += "x";
  } else if constexpr (std::is_same_v<T, TechParams>) {
    m.clock_ghz += 1.0;
  } else {
    m += 1;  // integers and doubles
  }
}

template <class T>
bool same(const T& a, const T& b) {
  if constexpr (std::equality_comparable<T>) {
    return a == b;
  } else {
    return true;  // TechParams: not parsed
  }
}

SimConfig campaign_on() {
  SimConfig s;
  s.fault.protection = ProtectionScheme::kParity;
  return s;
}

TEST(SimConfigIo, EveryMemberIsFingerprinted) {
  SimConfig base = campaign_on();
  const u64 ref = config_fingerprint(base);
  for (usize i = 0; i < kLeaves; ++i) {
    SimConfig s = base;
    for_each_leaf(s, base, [&](usize j, auto& m, auto&) {
      if (j == i) bump(m);
    });
    EXPECT_NE(config_fingerprint(s), ref) << "leaf " << i << " of leaves()";
  }
  // With the campaign off, a fault knob that keeps it off is not hashed.
  SimConfig off, moved;
  moved.fault.seed += 1;
  moved.fault.stuck_at1_fraction = 0.25;
  moved.fault.protect_directions = !moved.fault.protect_directions;
  EXPECT_EQ(config_fingerprint(moved), config_fingerprint(off));
}

TEST(SimConfigIo, KnownKeysCoverSchema) {
  // A valid non-default value for every key of the field table.
  const std::map<std::string, std::string> non_default = {
      {"cache.size", "64k"},
      {"cache.ways", "8"},
      {"cache.line", "128"},
      {"cache.addr_bits", "48"},
      {"cache.write_policy", "wt"},
      {"cache.alloc", "nwa"},
      {"cache.replacement", "fifo"},
      {"cache.idle_per_miss", "3"},
      {"cache.hit_idle_period", "0"},
      {"cache.way_prediction", "true"},
      {"cache.sector_writeback", "true"},
      {"cnt.window", "31"},
      {"cnt.partitions", "16"},
      {"cnt.fifo_depth", "4"},
      {"cnt.delta_t", "0.1"},
      {"cnt.fill", "as-is"},
      {"cnt.granularity", "line"},
      {"cnt.history", "per-set"},
      {"cnt.account_metadata", "false"},
      {"cnt.flip_aware", "true"},
      {"cnt.zero_line", "true"},
      {"policies.cmos", "false"},
      {"policies.static", "false"},
      {"policies.ideal", "false"},
      {"fault.stuck_per_mbit", "2"},
      {"fault.stuck_at1", "0.25"},
      {"fault.transient_per_read", "1e-6"},
      {"fault.protection", "secded"},
      {"fault.protect_directions", "false"},
      {"fault.seed", "7"},
  };
  const auto keys = known_sim_config_keys();
  EXPECT_EQ(keys.size(), non_default.size());
  std::vector<bool> reached(kLeaves, false);
  for (const std::string& key : keys) {
    const auto it = non_default.find(key);
    ASSERT_NE(it, non_default.end()) << key << " has no test value";
    // Fault keys are hashed only with the campaign on.
    Config base;
    if (key.starts_with("fault.")) {
      base.set(key == "fault.protection" ? "fault.stuck_per_mbit"
                                         : "fault.protection",
               key == "fault.protection" ? "1" : "parity");
    }
    Config with = base;
    with.set(key, it->second);
    SimConfig a = sim_config_from(base);
    SimConfig b = sim_config_from(with);
    EXPECT_NE(config_fingerprint(a), config_fingerprint(b)) << key;
    usize changed = 0;
    for_each_leaf(a, b, [&](usize i, const auto& x, const auto& y) {
      if (!same(x, y)) {
        ++changed;
        reached[i] = true;
      }
    });
    EXPECT_EQ(changed, 1u) << key;
  }
  EXPECT_EQ(std::count(reached.begin(), reached.end(), true),
            kLeaves - kUnparsedLeaves);
}

/// config_fingerprint as it was written out by hand before the field
/// table, kept verbatim: journals minted by it must still resume.
void reference_feed_tech(Fnv1a64& h, const TechParams& t) noexcept {
  h.update(t.name);
  h.update(t.cell.rd0.in_joules());
  h.update(t.cell.rd1.in_joules());
  h.update(t.cell.wr0.in_joules());
  h.update(t.cell.wr1.in_joules());
  h.update(t.periph.decoder_per_addr_bit.in_joules());
  h.update(t.periph.wordline_per_cell.in_joules());
  h.update(t.periph.tag_compare_per_bit.in_joules());
  h.update(t.periph.output_per_bit.in_joules());
  h.update(t.periph.encoder_per_bit.in_joules());
  h.update(t.periph.predictor_update.in_joules());
  h.update(t.periph.predictor_eval_per_bit.in_joules());
  h.update(t.periph.fifo_per_byte.in_joules());
  h.update(t.periph.leakage_per_cell_w);
  h.update(t.clock_ghz);
}

u64 reference_fingerprint(const SimConfig& cfg) noexcept {
  Fnv1a64 h;
  h.update(std::string_view("cnt-config-v1"));

  const CacheConfig& c = cfg.cache;
  h.update(c.name);
  h.update(static_cast<u64>(c.size_bytes));
  h.update(static_cast<u64>(c.ways));
  h.update(static_cast<u64>(c.line_bytes));
  h.update(static_cast<u64>(c.addr_bits));
  h.update(static_cast<u64>(c.write_policy));
  h.update(static_cast<u64>(c.alloc_policy));
  h.update(static_cast<u64>(c.replacement));
  h.update(static_cast<u64>(c.idle.idle_per_miss));
  h.update(static_cast<u64>(c.idle.hit_idle_period));
  h.update(c.replacement_seed);
  h.update(c.way_prediction);
  h.update(c.sector_writeback);

  reference_feed_tech(h, cfg.tech);
  reference_feed_tech(h, cfg.cmos_tech);

  const CntConfig& n = cfg.cnt;
  h.update(static_cast<u64>(n.window));
  h.update(static_cast<u64>(n.partitions));
  h.update(static_cast<u64>(n.fifo_depth));
  h.update(n.delta_t);
  h.update(static_cast<u64>(n.fill_policy));
  h.update(static_cast<u64>(n.write_granularity));
  h.update(static_cast<u64>(n.history_scope));
  h.update(n.account_metadata);
  h.update(n.flip_aware_writes);
  h.update(n.zero_line_opt);

  h.update(cfg.with_cmos);
  h.update(cfg.with_static);
  h.update(cfg.with_ideal);

  // Fault fields are hashed only when the campaign is active, so every
  // fingerprint minted before the fault subsystem existed -- and every
  // fault-free sweep journal -- stays byte-identical.
  if (cfg.fault.enabled()) {
    h.update(std::string_view("fault"));
    h.update(cfg.fault.stuck_per_mbit);
    h.update(cfg.fault.stuck_at1_fraction);
    h.update(cfg.fault.transient_per_read);
    h.update(static_cast<u64>(cfg.fault.protection));
    h.update(cfg.fault.protect_directions);
    h.update(cfg.fault.seed);
  }
  return h.digest();
}

template <class T>
void randomize(T& m, Rng& rng) {
  if constexpr (std::is_same_v<T, bool>) {
    m = rng.chance(0.5);
  } else if constexpr (std::is_enum_v<T>) {
    m = static_cast<T>(rng.uniform(3));
  } else if constexpr (std::is_integral_v<T>) {
    m = static_cast<T>(rng.next());
  } else if constexpr (std::is_same_v<T, double>) {
    m = rng.chance(0.25) ? 0.0 : rng.uniform01() * 100.0;
  } else if constexpr (std::is_same_v<T, std::string>) {
    m.assign(rng.uniform(6), static_cast<char>('a' + rng.uniform(26)));
  } else {
    m = rng.chance(0.5) ? TechParams::cnfet() : TechParams::cmos();
    m.clock_ghz = rng.uniform01() * 4.0;
    m.periph.fifo_per_byte = fJ(rng.uniform01());
  }
}

TEST(SimConfigIo, FingerprintMatchesTheHandWrittenReference) {
  Rng rng(27);
  usize faulted = 0;
  constexpr usize kConfigs = 2000;
  for (usize n = 0; n < kConfigs; ++n) {
    SimConfig s, unused;
    for_each_leaf(s, unused,
                  [&](usize, auto& m, const auto&) { randomize(m, rng); });
    if (rng.chance(0.5)) {  // the campaign off
      s.fault.stuck_per_mbit = 0.0;
      s.fault.transient_per_read = 0.0;
      s.fault.protection = ProtectionScheme::kNone;
    }
    if (s.fault.enabled()) ++faulted;
    ASSERT_EQ(config_fingerprint(s), reference_fingerprint(s))
        << "config " << n;
  }
  EXPECT_GT(faulted, kConfigs / 4);
  EXPECT_LT(faulted, kConfigs * 3 / 4);
  const SimConfig def;
  EXPECT_EQ(config_fingerprint(def), reference_fingerprint(def));
}

}  // namespace
}  // namespace cnt
