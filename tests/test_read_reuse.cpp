// Differential test of read-cost reuse (AccessEvent::line_version).
//
// CntPolicy and IdealPolicy reuse the read cost they priced for a line
// while the cache reports the same line version. Here every policy class
// runs twice on one cache: once as the cache feeds it, and once behind a
// forwarding sink that clears line_version, so that twin prices every read
// afresh. Ledgers (joules and charge counts), CNT stats, queue stats and
// the direction-bit fault tallies must match bit for bit, over randomized
// configurations with faults, protection and every CNT extension on, and
// on the L2 of simulate_hierarchy().
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/main_memory.hpp"
#include "cnt/baseline_policies.hpp"
#include "cnt/cnt_policy.hpp"
#include "common/rng.hpp"
#include "fault/protection.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

/// Forwards a copy of every event, with its version cleared, to `twin`.
class Unversioned final : public AccessSink {
 public:
  explicit Unversioned(AccessSink& twin) : twin_(twin) {}
  void on_access(const AccessEvent& ev) override {
    AccessEvent copy = ev;
    copy.line_version = 0;
    twin_.on_access(copy);
  }

 private:
  AccessSink& twin_;
};

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

void expect_same(const CntPolicy& a, const CntPolicy& b) {
  const CntPolicyStats& s = a.stats();
  const CntPolicyStats& t = b.stats();
  EXPECT_EQ(s.windows_evaluated, t.windows_evaluated);
  EXPECT_EQ(s.switch_decisions, t.switch_decisions);
  EXPECT_EQ(s.partition_flips_requested, t.partition_flips_requested);
  EXPECT_EQ(s.reencodes_applied, t.reencodes_applied);
  EXPECT_EQ(s.partition_flips_applied, t.partition_flips_applied);
  EXPECT_EQ(s.skipped_pending, t.skipped_pending);
  EXPECT_EQ(s.fill_inversions, t.fill_inversions);
  EXPECT_EQ(s.zero_fills, t.zero_fills);
  EXPECT_EQ(s.zero_reads, t.zero_reads);
  EXPECT_EQ(s.zero_materializations, t.zero_materializations);
  const UpdateQueueStats& q = a.queue_stats();
  const UpdateQueueStats& r = b.queue_stats();
  EXPECT_EQ(q.pushed, r.pushed);
  EXPECT_EQ(q.dropped_full, r.dropped_full);
  EXPECT_EQ(q.drained, r.drained);
  EXPECT_EQ(q.drained_stale, r.drained_stale);
  EXPECT_EQ(q.max_occupancy, r.max_occupancy);
}

/// The direction-bit domain of two campaigns (the data domain belongs to
/// the cache and is shared by both twins).
void expect_same_dir_tallies(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.stuck_dir_cells, b.stuck_dir_cells);
  EXPECT_EQ(a.transient_dir_flips, b.transient_dir_flips);
  EXPECT_EQ(a.dir_flips, b.dir_flips);
  EXPECT_EQ(a.dir_corrected_bits, b.dir_corrected_bits);
  EXPECT_EQ(a.dir_detected_events, b.dir_detected_events);
  EXPECT_EQ(a.dir_silent_bits, b.dir_silent_bits);
}

/// The baseline, static-invert, CNT-Cache and ideal policies of one cache,
/// each with an Unversioned twin, wired as simulate() wires a cache. The
/// twin CNT policy reads its direction bits from a second campaign with
/// the same seed: a campaign's direction domain has its own stuck map and
/// RNG stream, so the second replays the first exactly.
class Twins {
 public:
  Twins(Cache& cache, const SimConfig& cfg) {
    const ArrayGeometry geom = geometry_of(cfg.cache);
    if (cfg.fault.enabled()) {
      for (auto* c : {&campaign_, &twin_campaign_}) {
        *c = std::make_unique<FaultCampaign>(
            cfg.fault, cfg.cache.sets(), cfg.cache.ways,
            cfg.cache.line_bytes, cfg.cnt.partitions);
      }
      cache.set_fault_hook(campaign_.get());
    }
    const ProtectionSpec data_prot =
        make_protection_spec(cfg.fault.protection, geom.line_bits(),
                             cfg.cnt.partitions, /*include_directions=*/false);
    const ProtectionSpec cnt_prot = make_protection_spec(
        cfg.fault.protection, geom.line_bits(), cfg.cnt.partitions,
        cfg.fault.protect_directions);
    ArrayGeometry data_geom = geom;
    data_geom.meta_bits += data_prot.check_bits;
    ArrayGeometry cnt_geom = geom;
    cnt_geom.meta_bits += cnt_prot.check_bits;
    const WriteGranularity wg = cfg.cnt.write_granularity;

    for (usize twin = 0; twin < 2; ++twin) {
      auto& set = policies_[twin];
      set.push_back(std::make_unique<PlainPolicy>(
          std::string(kPolicyBaseline), cfg.tech, data_geom, wg));
      set.push_back(std::make_unique<StaticInvertPolicy>(
          std::string(kPolicyStatic), cfg.tech, data_geom, wg));
      auto cnt = std::make_unique<CntPolicy>(std::string(kPolicyCnt),
                                             cfg.tech, cnt_geom, cfg.cnt);
      cnt->attach_direction_hook(twin == 0 ? campaign_.get()
                                           : twin_campaign_.get());
      cnt_[twin] = cnt.get();
      set.push_back(std::move(cnt));
      set.push_back(std::make_unique<IdealPolicy>(
          std::string(kPolicyIdeal), cfg.tech, data_geom, cfg.cnt.partitions,
          wg));
      for (auto& p : set) {
        p->set_protection(p.get() == cnt_[twin] ? cnt_prot : data_prot);
        if (twin == 0) {
          cache.add_sink(*p);
        } else {
          forwarders_.push_back(std::make_unique<Unversioned>(*p));
          cache.add_sink(*forwarders_.back());
        }
      }
    }
  }

  void expect_equal() const {
    for (usize i = 0; i < policies_[0].size(); ++i) {
      expect_same(policies_[0][i]->ledger(), policies_[1][i]->ledger(),
                  policies_[0][i]->name());
    }
    expect_same(*cnt_[0], *cnt_[1]);
    if (campaign_) {
      expect_same_dir_tallies(campaign_->stats(), twin_campaign_->stats());
    }
  }

  /// The reusing policies, in attach order.
  [[nodiscard]] const std::vector<std::unique_ptr<EnergyPolicyBase>>&
  reusing() const {
    return policies_[0];
  }
  [[nodiscard]] const FaultCampaign* campaign() const {
    return campaign_.get();
  }

 private:
  std::unique_ptr<FaultCampaign> campaign_;
  std::unique_ptr<FaultCampaign> twin_campaign_;
  std::vector<std::unique_ptr<EnergyPolicyBase>> policies_[2];
  std::vector<std::unique_ptr<Unversioned>> forwarders_;
  CntPolicy* cnt_[2] = {nullptr, nullptr};
};

template <class T, usize N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.uniform(N)];
}

/// A random small cache with every CNT extension and fault knob drawn
/// independently; 64 B lines, K in {1, 4, 8, 16, 32}.
SimConfig random_config(Rng& rng) {
  SimConfig cfg;
  cfg.cache.size_bytes = pick(rng, {usize{1024}, usize{2048}, usize{4096}});
  cfg.cache.ways = pick(rng, {usize{1}, usize{2}, usize{4}, usize{8}});
  cfg.cache.line_bytes = 64;
  cfg.cache.write_policy = rng.chance(0.25) ? WritePolicy::kWriteThrough
                                            : WritePolicy::kWriteBack;
  cfg.cache.alloc_policy = rng.chance(0.25) ? AllocPolicy::kNoWriteAllocate
                                            : AllocPolicy::kWriteAllocate;
  cfg.cache.replacement = pick(rng, {ReplKind::kLru, ReplKind::kFifo,
                                     ReplKind::kRandom, ReplKind::kTreePlru});
  cfg.cache.way_prediction = rng.chance(0.5);
  cfg.cache.sector_writeback = rng.chance(0.5);
  cfg.cache.idle.idle_per_miss = pick(rng, {0u, 1u, 8u});
  cfg.cache.idle.hit_idle_period = pick(rng, {0u, 1u, 4u});

  cfg.cnt.partitions = pick(rng, {usize{1}, usize{4}, usize{8}, usize{16},
                                  usize{32}});
  cfg.cnt.window = pick(rng, {usize{2}, usize{5}, usize{15}});
  cfg.cnt.fifo_depth = pick(rng, {usize{1}, usize{8}});
  cfg.cnt.delta_t = pick(rng, {0.0, 0.05});
  cfg.cnt.fill_policy =
      pick(rng, {FillDirectionPolicy::kAsIs, FillDirectionPolicy::kByMissType,
                 FillDirectionPolicy::kMinWriteEnergy,
                 FillDirectionPolicy::kReadOptimized});
  cfg.cnt.write_granularity =
      rng.chance(0.5) ? WriteGranularity::kWord : WriteGranularity::kLine;
  cfg.cnt.history_scope =
      rng.chance(0.5) ? HistoryScope::kPerSet : HistoryScope::kPerLine;
  cfg.cnt.zero_line_opt = rng.chance(0.5);
  cfg.cnt.flip_aware_writes = rng.chance(0.5);
  cfg.cnt.account_metadata = rng.chance(0.8);

  cfg.fault.stuck_per_mbit = pick(rng, {0.0, 2000.0, 30000.0});
  cfg.fault.transient_per_read = pick(rng, {0.0, 1e-5, 1e-3});
  cfg.fault.protection =
      pick(rng, {ProtectionScheme::kNone, ProtectionScheme::kParity,
                 ProtectionScheme::kSecded});
  cfg.fault.protect_directions = rng.chance(0.5);
  cfg.fault.seed = rng.next();
  return cfg;
}

/// Word-sized value with a random bias: all zeros, all ones, small
/// integers or uniform bits.
u64 random_value(Rng& rng) {
  switch (rng.uniform(4)) {
    case 0: return 0;
    case 1: return ~u64{0};
    case 2: return rng.geometric_magnitude(32, 0.7);
    default: return rng.next();
  }
}

/// Mostly reads over a footprint a few times the cache, so read hits on
/// unchanged lines dominate and stores, fills and evictions interleave.
std::vector<MemAccess> random_trace(Rng& rng, usize n, usize footprint) {
  std::vector<MemAccess> out;
  out.reserve(n);
  const u8 sizes[] = {1, 2, 4, 8};
  for (usize i = 0; i < n; ++i) {
    const u8 size = sizes[rng.uniform(4)];
    const u64 addr = rng.uniform(footprint / size) * size;
    if (rng.chance(0.75)) {
      out.push_back(MemAccess::read(addr, size));
    } else {
      const u64 mask = size == 8 ? ~u64{0} : (u64{1} << (size * 8)) - 1;
      out.push_back(MemAccess::write(addr, random_value(rng) & mask, size));
    }
  }
  return out;
}

MemorySegment random_image(Rng& rng, usize bytes) {
  MemorySegment seg;
  seg.bytes.resize(bytes);
  for (usize i = 0; i < bytes; i += 8) {
    const u64 v = random_value(rng);
    for (usize b = 0; b < 8; ++b) seg.bytes[i + b] = static_cast<u8>(v >> (8 * b));
  }
  return seg;
}

class ReadReuse : public ::testing::TestWithParam<u64> {};

TEST_P(ReadReuse, UnversionedTwinsMatchBitwise) {
  Rng rng(GetParam());
  const SimConfig cfg = random_config(rng);
  const usize footprint = cfg.cache.size_bytes * 3;
  MainMemory memory;
  const MemorySegment image = random_image(rng, footprint);
  memory.load(std::span<const MemorySegment>(&image, 1));
  Cache cache(cfg.cache, memory);
  const Twins twins(cache, cfg);
  for (const MemAccess& a : random_trace(rng, 20000, footprint)) {
    cache.access(a);
  }
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + " K=" +
               std::to_string(cfg.cnt.partitions));
  twins.expect_equal();
  // The run must exercise reuse: plenty of read hits were priced.
  EXPECT_GT(cache.stats().read_hits, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadReuse, ::testing::Range<u64>(1, 41));

// Every K on 64 B lines, with faults in both domains under every
// protection scheme, so the byte-popcount partitions (K >= 16) and a
// direction mask bent by a fault are both covered whatever the random
// draws above give.
TEST(ReadReuseFaults, EveryPartitionCountAndScheme) {
  const ProtectionScheme schemes[] = {ProtectionScheme::kNone,
                                      ProtectionScheme::kParity,
                                      ProtectionScheme::kSecded};
  u64 seed = 100;
  for (const usize k : {usize{1}, usize{4}, usize{8}, usize{16}, usize{32}}) {
    for (const ProtectionScheme scheme : schemes) {
      for (const bool protect_dirs : {false, true}) {
        Rng rng(++seed);
        SimConfig cfg;
        cfg.cache.size_bytes = 2048;
        cfg.cache.ways = 4;
        cfg.cnt.partitions = k;
        cfg.cnt.window = 4;
        cfg.fault.stuck_per_mbit = 30000.0;
        cfg.fault.transient_per_read = 1e-3;
        cfg.fault.protection = scheme;
        cfg.fault.protect_directions = protect_dirs;
        cfg.fault.seed = seed;
        MainMemory memory;
        const MemorySegment image = random_image(rng, 8192);
        memory.load(std::span<const MemorySegment>(&image, 1));
        Cache cache(cfg.cache, memory);
        const Twins twins(cache, cfg);
        for (const MemAccess& a : random_trace(rng, 8000, 8192)) {
          cache.access(a);
        }
        SCOPED_TRACE("K=" + std::to_string(k) + " scheme=" +
                     std::to_string(static_cast<int>(scheme)) +
                     " protect_dirs=" + std::to_string(protect_dirs));
        twins.expect_equal();
        const FaultStats& fs = twins.campaign()->stats();
        EXPECT_GT(fs.stuck_data_cells, 0u);
        EXPECT_GT(fs.dir_flips, 0u);
      }
    }
  }
}

// The L2 of a hierarchy sees line-granular traffic (size 0) from both
// L1s. Its twins must match, and its reusing policies must equal what
// simulate_hierarchy() reports for the same level.
TEST(ReadReuseHierarchy, L2TwinsMatchSimulateHierarchy) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    HierarchyRunConfig run_cfg;
    run_cfg.hierarchy.l2.size_bytes = 16 * 1024;
    run_cfg.hierarchy.l1d.size_bytes = 2048;
    run_cfg.hierarchy.l1i.size_bytes = 2048;
    run_cfg.l2_cnt.partitions =
        pick(rng, {usize{1}, usize{4}, usize{8}, usize{16}, usize{32}});
    run_cfg.l2_cnt.window = pick(rng, {usize{3}, usize{15}});
    run_cfg.l2_cnt.zero_line_opt = rng.chance(0.5);
    run_cfg.l2_cnt.flip_aware_writes = rng.chance(0.5);
    run_cfg.hierarchy.l2.way_prediction = rng.chance(0.5);
    std::vector<LevelSetup> levels = hierarchy_levels(run_cfg);
    levels[2].policies = {.baseline = true,
                          .static_inv = true,
                          .cnt = true,
                          .ideal = true};

    const Workload mixed = interleave(build_workload("ifetch", 0.05, seed),
                                      build_workload("zipf_kv", 0.05, seed));
    VectorTraceSource source(mixed.trace);
    const HierarchySimResult expected =
        simulate_hierarchy(source, mixed.init, levels);

    HierarchyConfig topology;
    topology.l1i = levels[0].cfg.cache;
    topology.l1d = levels[1].cfg.cache;
    topology.l2 = levels[2].cfg.cache;
    MainMemory memory;
    memory.load(mixed.init);
    Hierarchy h(topology, memory);
    const Twins twins(h.l2(), levels[2].cfg);
    for (usize i = 0; i < mixed.trace.size(); ++i) h.access(mixed.trace[i]);

    SCOPED_TRACE("seed " + std::to_string(seed));
    twins.expect_equal();
    const SimResult& l2 = expected.levels[2];
    ASSERT_EQ(l2.policies.size(), twins.reusing().size());
    for (usize i = 0; i < l2.policies.size(); ++i) {
      EXPECT_EQ(l2.policies[i].name, twins.reusing()[i]->name());
      expect_same(l2.policies[i].ledger, twins.reusing()[i]->ledger(),
                  l2.policies[i].name);
    }
    EXPECT_GT(h.l2().stats().read_hits, 0u);
  }
}

}  // namespace
}  // namespace cnt
