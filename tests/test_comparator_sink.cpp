// Comparator identity: a ComparatorSink prices any set of comparators in
// one pass, charging peripherals once per technology, and every ledger it
// reports must equal, bit for bit, the ledger of the same comparator
// attached to the cache on its own. Checked over randomized geometries,
// write modes, protection schemes with a live fault campaign and a CMOS
// technology unlike the CNFET one, for every non-empty subset of
// {cmos, cnfet_base, static_inv, ideal}, and on a hierarchy level that
// carries only the baseline.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/main_memory.hpp"
#include "cnt/baseline_policies.hpp"
#include "common/rng.hpp"
#include "fault/campaign.hpp"
#include "fault/protection.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

void expect_same(const EnergyLedger& a, const EnergyLedger& b,
                 const std::string& what) {
  for (usize c = 0; c < static_cast<usize>(EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<EnergyCategory>(c);
    EXPECT_EQ(std::bit_cast<u64>(a.get(cat).in_joules()),
              std::bit_cast<u64>(b.get(cat).in_joules()))
        << what << ' ' << to_string(cat);
    EXPECT_EQ(a.count(cat), b.count(cat)) << what << ' ' << to_string(cat);
  }
}

template <class T, usize N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.uniform(N)];
}

/// One random comparator setting: geometry, write modes, K, protection
/// (with a fault campaign whenever it is on) and the two technologies.
struct Trial {
  CacheConfig cache;
  usize partitions = 8;
  WriteGranularity wg = WriteGranularity::kWord;
  FaultConfig fault;
  TechParams tech = TechParams::cnfet();
  TechParams cmos_tech = TechParams::cmos();
};

Trial random_trial(Rng& rng) {
  Trial s;
  s.cache.line_bytes = pick(rng, {usize{16}, usize{32}, usize{64}, usize{128}});
  s.cache.ways = pick(rng, {usize{1}, usize{2}, usize{4}, usize{8}});
  const usize sets = pick(rng, {usize{2}, usize{4}, usize{16}});
  s.cache.size_bytes = sets * s.cache.ways * s.cache.line_bytes;
  s.cache.write_policy = rng.chance(0.25) ? WritePolicy::kWriteThrough
                                          : WritePolicy::kWriteBack;
  s.cache.alloc_policy = rng.chance(0.25) ? AllocPolicy::kNoWriteAllocate
                                          : AllocPolicy::kWriteAllocate;
  s.cache.sector_writeback = rng.chance(0.5);
  s.cache.way_prediction = rng.chance(0.3);
  // K divides the line into byte-aligned partitions.
  do {
    s.partitions = pick(rng, {usize{1}, usize{2}, usize{4}, usize{8},
                              usize{16}, usize{32}});
  } while (s.partitions > s.cache.line_bytes);
  s.wg = rng.chance(0.5) ? WriteGranularity::kWord : WriteGranularity::kLine;
  s.fault.protection =
      pick(rng, {ProtectionScheme::kNone, ProtectionScheme::kParity,
                 ProtectionScheme::kSecded});
  if (s.fault.protection != ProtectionScheme::kNone || rng.chance(0.3)) {
    s.fault.stuck_per_mbit = pick(rng, {0.0, 2000.0, 30000.0});
    s.fault.transient_per_read = pick(rng, {1e-5, 1e-3});
    s.fault.seed = rng.next();
  }
  // A CMOS technology unlike the CNFET one, and now and then the same one,
  // so the two share a peripheral ledger.
  if (rng.chance(0.2)) s.cmos_tech = s.tech;
  return s;
}

/// A comparator of the given kind: 0 cmos, 1 cnfet_base, 2 static_inv,
/// 3 ideal; protected as simulate() protects the data line.
std::unique_ptr<ComparatorPolicy> make(const Trial& s, usize kind) {
  const ProtectionSpec prot =
      make_protection_spec(s.fault.protection, s.cache.line_bytes * 8,
                           s.partitions, /*include_directions=*/false);
  ArrayGeometry geom = geometry_of(s.cache);
  geom.meta_bits += prot.check_bits;
  std::unique_ptr<ComparatorPolicy> p;
  switch (kind) {
    case 0:
      p = std::make_unique<PlainPolicy>("cmos", s.cmos_tech, geom, s.wg);
      break;
    case 1:
      p = std::make_unique<PlainPolicy>("base", s.tech, geom, s.wg);
      break;
    case 2:
      p = std::make_unique<StaticInvertPolicy>("static", s.tech, geom, s.wg);
      break;
    default:
      p = std::make_unique<IdealPolicy>("ideal", s.tech, geom, s.partitions,
                                        s.wg);
      break;
  }
  p->set_protection(prot);
  return p;
}

/// Word-sized value with a random bias.
u64 random_value(Rng& rng) {
  switch (rng.uniform(4)) {
    case 0: return 0;
    case 1: return ~u64{0};
    case 2: return rng.geometric_magnitude(32, 0.7);
    default: return rng.next();
  }
}

TEST(ComparatorSink, EverySubsetMatchesEachComparatorAlone) {
  constexpr usize kKinds = 4;
  for (u64 seed = 1; seed <= 240; ++seed) {
    Rng rng(seed);
    const Trial s = random_trial(rng);
    MainMemory memory;
    const usize footprint = s.cache.size_bytes * 3;
    MemorySegment image;
    image.bytes.resize(footprint);
    for (u8& b : image.bytes) b = static_cast<u8>(random_value(rng) & 0xFF);
    memory.load(std::span<const MemorySegment>(&image, 1));
    Cache cache(s.cache, memory);
    std::unique_ptr<FaultCampaign> campaign;
    if (s.fault.enabled()) {
      campaign = std::make_unique<FaultCampaign>(
          s.fault, s.cache.sets(), s.cache.ways, s.cache.line_bytes,
          s.partitions);
      cache.set_fault_hook(campaign.get());
    }

    // Every comparator alone, and one sink per non-empty subset, all
    // watching the same run.
    std::vector<std::unique_ptr<ComparatorPolicy>> alone;
    for (usize k = 0; k < kKinds; ++k) {
      alone.push_back(make(s, k));
      cache.add_sink(*alone.back());
    }
    std::vector<std::unique_ptr<ComparatorSink>> sinks;
    std::vector<std::vector<usize>> kinds_of;
    for (usize mask = 1; mask < (usize{1} << kKinds); ++mask) {
      auto& sink = sinks.emplace_back(std::make_unique<ComparatorSink>());
      auto& kinds = kinds_of.emplace_back();
      for (usize k = 0; k < kKinds; ++k) {
        if ((mask >> k) & 1u) {
          sink->add(make(s, k));
          kinds.push_back(k);
        }
      }
      cache.add_sink(*sink);
    }

    for (usize i = 0; i < 1500; ++i) {
      const u8 size = pick(rng, {u8{1}, u8{2}, u8{4}, u8{8}});
      const u64 addr = rng.uniform(footprint / size) * size;
      if (rng.chance(0.6)) {
        cache.access(MemAccess::read(addr, size));
      } else {
        const u64 mask = size == 8 ? ~u64{0} : (u64{1} << (size * 8)) - 1;
        cache.access(MemAccess::write(addr, random_value(rng) & mask, size));
      }
    }

    SCOPED_TRACE("seed " + std::to_string(seed));
    for (usize j = 0; j < sinks.size(); ++j) {
      ASSERT_EQ(sinks[j]->size(), kinds_of[j].size());
      for (usize i = 0; i < kinds_of[j].size(); ++i) {
        const ComparatorPolicy& solo = *alone[kinds_of[j][i]];
        EXPECT_EQ(sinks[j]->name(i), solo.name());
        expect_same(sinks[j]->ledger(i), solo.ledger(),
                    "subset " + std::to_string(j + 1) + ' ' + solo.name());
      }
    }
    EXPECT_GT(alone[1]->ledger().count(EnergyCategory::kDataRead), 0u);
  }
}

TEST(ComparatorSink, RefusesMixedGeometryWriteGranularityOrProtection) {
  Trial s;
  s.wg = WriteGranularity::kWord;
  ComparatorSink sink;
  sink.add(make(s, 1));
  Trial line_writes = s;
  line_writes.wg = WriteGranularity::kLine;
  EXPECT_THROW(sink.add(make(line_writes, 2)), std::invalid_argument);
  Trial wider = s;
  wider.cache.line_bytes *= 2;
  EXPECT_THROW(sink.add(make(wider, 2)), std::invalid_argument);
  Trial parity = s;
  parity.fault.protection = ProtectionScheme::kParity;
  EXPECT_THROW(sink.add(make(parity, 2)), std::invalid_argument);
  sink.add(make(s, 2));
  EXPECT_EQ(sink.size(), 2u);

  // Rows as wide as a SECDED array's but checking nothing: the geometry
  // matches, the protection does not.
  Trial secded = s;
  secded.fault.protection = ProtectionScheme::kSecded;
  ComparatorSink protected_sink;
  protected_sink.add(make(secded, 1));
  auto bare = make(secded, 2);
  bare->set_protection(ProtectionSpec{});
  EXPECT_THROW(protected_sink.add(std::move(bare)), std::invalid_argument);
  EXPECT_EQ(protected_sink.size(), 1u);
}

// A sink of one hands the cache its comparator, whose own pass is the
// one-member pass; from two members on it hands the cache itself.
TEST(ComparatorSink, EntryIsTheLoneComparatorOrTheSink) {
  const Trial s;
  ComparatorSink sink;
  auto base = make(s, 1);
  const AccessSink* lone = base.get();
  sink.add(std::move(base));
  EXPECT_EQ(&sink.entry(), lone);
  sink.add(make(s, 0));
  EXPECT_EQ(&sink.entry(), &sink);
}

// A hierarchy level that carries only the baseline gets the same ledger
// as the baseline attached on its own to the same level, and as the
// baseline of a level that carries every comparator.
TEST(ComparatorSink, BaselineOnlyHierarchyLevelMatchesAlone) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    HierarchyRunConfig run_cfg;
    run_cfg.hierarchy.l1d.size_bytes = 2048;
    run_cfg.hierarchy.l1i.size_bytes = 2048;
    run_cfg.hierarchy.l2.size_bytes = 16 * 1024;
    std::vector<LevelSetup> only_base = hierarchy_levels(run_cfg);
    std::vector<LevelSetup> all = only_base;
    for (LevelSetup& l : only_base) l.policies = {.baseline = true};
    for (LevelSetup& l : all) {
      l.policies = {.cmos = true,
                    .baseline = true,
                    .static_inv = true,
                    .ideal = true};
    }

    const Workload mixed = interleave(build_workload("ifetch", 0.05, seed),
                                      build_workload("zipf_kv", 0.05, seed));
    VectorTraceSource source(mixed.trace);
    const HierarchySimResult lone = simulate_hierarchy(source, mixed.init,
                                                       only_base);
    const HierarchySimResult full = simulate_hierarchy(source, mixed.init,
                                                       all);

    HierarchyConfig topology;
    topology.l1i = only_base[0].cfg.cache;
    topology.l1d = only_base[1].cfg.cache;
    topology.l2 = only_base[2].cfg.cache;
    MainMemory memory;
    memory.load(mixed.init);
    Hierarchy h(topology, memory);
    std::vector<std::unique_ptr<PlainPolicy>> solo;
    for (usize i = 0; i < only_base.size(); ++i) {
      const SimConfig& cfg = only_base[i].cfg;
      Cache& cache = i == 0 ? h.l1i() : i == 1 ? h.l1d() : h.l2();
      solo.push_back(std::make_unique<PlainPolicy>(
          std::string(kPolicyBaseline), cfg.tech, geometry_of(cfg.cache),
          cfg.cnt.write_granularity));
      cache.add_sink(*solo.back());
    }
    h.run(mixed.trace);

    SCOPED_TRACE("seed " + std::to_string(seed));
    for (usize i = 0; i < only_base.size(); ++i) {
      ASSERT_EQ(lone.levels[i].policies.size(), 1u);
      const PolicyResult& base = lone.levels[i].policy(kPolicyBaseline);
      expect_same(base.ledger, solo[i]->ledger(), "level " + std::to_string(i));
      expect_same(full.levels[i].policy(kPolicyBaseline).ledger, base.ledger,
                  "level " + std::to_string(i) + " beside every comparator");
      EXPECT_GT(base.ledger.count(EnergyCategory::kDataRead), 0u);
    }
  }
}

}  // namespace
}  // namespace cnt
