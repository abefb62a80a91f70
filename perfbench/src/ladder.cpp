#include "ladder.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <optional>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/main_memory.hpp"
#include "cnt/baseline_policies.hpp"
#include "common/cancel.hpp"
#include "fault/campaign.hpp"
#include "fault/protection.hpp"

namespace perfbench {

namespace {

using cnt::MemAccess;

/// The simulate() configuration a stage's pipeline corresponds to.
cnt::SimConfig stage_config(cnt::SimConfig cfg, const cnt::FaultConfig& fault,
                            usize stage) {
  cfg.with_cmos = stage >= kCmos;
  cfg.with_static = stage >= kStatic;
  cfg.with_ideal = stage >= kIdeal;
  cfg.fault = stage >= kFault ? fault : cnt::FaultConfig{};
  return cfg;
}

/// The policies (and fault campaign) of one cache, wired exactly as
/// simulate() wires them, cut off at a ladder stage.
struct PolicySet {
  std::unique_ptr<cnt::FaultCampaign> campaign;
  std::unique_ptr<cnt::PlainPolicy> base;
  std::unique_ptr<cnt::CntPolicy> cnt_policy;
  std::unique_ptr<cnt::PlainPolicy> cmos;
  std::unique_ptr<cnt::StaticInvertPolicy> static_inv;
  std::unique_ptr<cnt::IdealPolicy> ideal;

  void attach(cnt::Cache& cache, const cnt::SimConfig& cfg, usize stage) {
    if (stage < kBase) return;
    const cnt::ArrayGeometry geom = cnt::geometry_of(cfg.cache);
    if (cfg.fault.enabled()) {
      campaign = std::make_unique<cnt::FaultCampaign>(
          cfg.fault, cfg.cache.sets(), cfg.cache.ways, cfg.cache.line_bytes,
          cfg.cnt.partitions);
      cache.set_fault_hook(campaign.get());
    }
    const cnt::ProtectionSpec data_prot = cnt::make_protection_spec(
        cfg.fault.protection, geom.line_bits(), cfg.cnt.partitions,
        /*include_directions=*/false);
    const cnt::ProtectionSpec cnt_prot = cnt::make_protection_spec(
        cfg.fault.protection, geom.line_bits(), cfg.cnt.partitions,
        cfg.fault.protect_directions);
    cnt::ArrayGeometry data_geom = geom;
    data_geom.meta_bits += data_prot.check_bits;
    cnt::ArrayGeometry cnt_geom = geom;
    cnt_geom.meta_bits += cnt_prot.check_bits;
    const cnt::WriteGranularity wg = cfg.cnt.write_granularity;

    base = std::make_unique<cnt::PlainPolicy>(
        std::string(cnt::kPolicyBaseline), cfg.tech, data_geom, wg);
    base->set_protection(data_prot);
    cache.add_sink(*base);
    if (stage < kCnt) return;
    cnt_policy = std::make_unique<cnt::CntPolicy>(
        std::string(cnt::kPolicyCnt), cfg.tech, cnt_geom, cfg.cnt);
    cnt_policy->set_protection(cnt_prot);
    cnt_policy->attach_direction_hook(campaign.get());
    cache.add_sink(*cnt_policy);
    if (cfg.with_cmos) {
      cmos = std::make_unique<cnt::PlainPolicy>(
          std::string(cnt::kPolicyCmos), cfg.cmos_tech, data_geom, wg);
      cmos->set_protection(data_prot);
      cache.add_sink(*cmos);
    }
    if (cfg.with_static) {
      static_inv = std::make_unique<cnt::StaticInvertPolicy>(
          std::string(cnt::kPolicyStatic), cfg.tech, data_geom, wg);
      static_inv->set_protection(data_prot);
      cache.add_sink(*static_inv);
    }
    if (cfg.with_ideal) {
      ideal = std::make_unique<cnt::IdealPolicy>(
          std::string(cnt::kPolicyIdeal), cfg.tech, data_geom,
          cfg.cnt.partitions, wg);
      ideal->set_protection(data_prot);
      cache.add_sink(*ideal);
    }
  }

  /// Policy results in simulate()'s report order.
  void collect(cnt::SimResult& res) const {
    auto take = [&res](const cnt::EnergyPolicyBase& p) {
      cnt::PolicyResult pr;
      pr.name = p.name();
      pr.ledger = p.ledger();
      res.policies.push_back(std::move(pr));
    };
    if (cmos) take(*cmos);
    take(*base);
    if (static_inv) take(*static_inv);
    cnt::PolicyResult pr;
    pr.name = cnt_policy->name();
    pr.ledger = cnt_policy->ledger();
    pr.has_cnt_stats = true;
    pr.cnt_stats = cnt_policy->stats();
    pr.queue_stats = cnt_policy->queue_stats();
    res.policies.push_back(std::move(pr));
    if (ideal) take(*ideal);
    if (campaign) {
      res.has_fault = true;
      res.fault_stats = campaign->stats();
    }
  }
};

/// Stage 1: pull every access out of the source and touch it.
u64 drain(cnt::TraceSource& src, std::vector<MemAccess>& batch) {
  src.reset();
  u64 sum = 0;
  for (;;) {
    const usize got = src.next(batch);
    if (got == 0) break;
    sum += got + batch[got - 1].addr;
  }
  return sum;
}

/// Stage 2 without a cache: the stats feed alone.
void feed_only(cnt::TraceSource& src, std::vector<MemAccess>& batch,
               cnt::TraceStatsAccumulator& acc) {
  src.reset();
  for (;;) {
    const usize got = src.next(batch);
    if (got == 0) break;
    for (usize i = 0; i < got; ++i) acc.feed(batch[i]);
  }
}

/// A single-cache pipeline up to some stage; the replay loop is the one in
/// sim/runner.cpp (batch pull, cancellation poll per batch, prefetch eight
/// accesses ahead, stats on the un-routed access, IFetch routed as Read).
struct SinglePipeline {
  cnt::MainMemory memory;
  std::unique_ptr<cnt::Cache> cache;
  PolicySet policies;
  cnt::TraceStatsAccumulator stats;

  SinglePipeline(const cnt::SimConfig& cfg, usize stage,
                 std::span<const cnt::MemorySegment> init) {
    memory.load(init);
    if (stage >= kCache) {
      cache = std::make_unique<cnt::Cache>(cfg.cache, memory);
      policies.attach(*cache, cfg, stage);
    }
  }

  void replay(cnt::TraceSource& src, std::vector<MemAccess>& batch,
              const cnt::SimConfig& cfg) {
    const u64 line_mask = ~static_cast<u64>(cfg.cache.line_bytes - 1);
    const usize line_bytes = cfg.cache.line_bytes;
    const bool warm_sets = cfg.cache.size_bytes > (usize{1} << 21);
    constexpr usize kPrefetchDistance = 8;
    src.reset();
    for (;;) {
      cnt::cancel::throw_if_cancelled("sim.replay");
      const usize got = src.next(batch);
      if (got == 0) break;
      for (usize i = 0; i < got; ++i) {
        if (i + kPrefetchDistance < got) {
          const u64 ahead = batch[i + kPrefetchDistance].addr;
          if (warm_sets) cache->prefetch(ahead);
          memory.prefetch_line(ahead & line_mask, line_bytes);
        }
        stats.feed(batch[i]);
        MemAccess routed = batch[i];
        if (routed.op == cnt::MemOp::kIFetch) routed.op = cnt::MemOp::kRead;
        cache->access(routed);
      }
    }
  }

  [[nodiscard]] cnt::SimResult result(const std::string& name) const {
    cnt::SimResult res;
    res.workload = name;
    res.trace_stats = stats.finish();
    res.cache_stats = cache->stats();
    policies.collect(res);
    return res;
  }
};

cnt::SimConfig level_config(const LadderConfig& cfg, usize level,
                            usize stage) {
  cnt::SimConfig c;
  const cnt::HierarchyConfig& h = cfg.hier.hierarchy;
  c.cache = level == 0 ? h.l1i : level == 1 ? h.l1d : h.l2;
  c.tech = cfg.hier.tech;
  c.cnt = level == 2 ? cfg.hier.l2_cnt : cfg.hier.l1_cnt;
  return stage_config(c, cfg.fault, stage);
}

/// A split-L1 + L2 pipeline up to some stage; the replay loop is the one
/// in sim/hierarchy_runner.cpp (Hierarchy::access routes IFetch to L1I).
struct HierPipeline {
  cnt::MainMemory memory;
  std::unique_ptr<cnt::Hierarchy> h;
  std::array<PolicySet, 3> levels;
  cnt::TraceStatsAccumulator stats;

  HierPipeline(const LadderConfig& cfg, usize stage,
               std::span<const cnt::MemorySegment> init) {
    memory.load(init);
    if (stage < kCache) return;
    h = std::make_unique<cnt::Hierarchy>(cfg.hier.hierarchy, memory);
    std::array<cnt::Cache*, 3> caches = {&h->l1i(), &h->l1d(), &h->l2()};
    for (usize i = 0; i < 3; ++i) {
      levels[i].attach(*caches[i], level_config(cfg, i, stage), stage);
    }
  }

  void replay(cnt::TraceSource& src, std::vector<MemAccess>& batch) {
    src.reset();
    for (;;) {
      cnt::cancel::throw_if_cancelled("sim.replay");
      const usize got = src.next(batch);
      if (got == 0) break;
      for (usize i = 0; i < got; ++i) {
        stats.feed(batch[i]);
        h->access(batch[i]);
      }
    }
  }

  /// run_hierarchy()'s result shape: per level the adaptive policy's
  /// ledger when CNT is enabled there, else the baseline's.
  [[nodiscard]] cnt::HierarchyRunResult result(const LadderConfig& cfg) {
    const std::array<bool, 3> adaptive = {cfg.hier.cnt_at_l1i,
                                          cfg.hier.cnt_at_l1d,
                                          cfg.hier.cnt_at_l2};
    const std::array<const char*, 3> names = {"L1I", "L1D", "L2"};
    std::array<cnt::Cache*, 3> caches = {&h->l1i(), &h->l1d(), &h->l2()};
    cnt::HierarchyRunResult res;
    for (usize i = 0; i < 3; ++i) {
      const cnt::EnergyPolicyBase& p =
          adaptive[i]
              ? static_cast<const cnt::EnergyPolicyBase&>(*levels[i].cnt_policy)
              : static_cast<const cnt::EnergyPolicyBase&>(*levels[i].base);
      res.levels.push_back({names[i], adaptive[i], p.ledger(),
                            caches[i]->stats()});
    }
    res.dram_energy = cfg.hier.dram.traffic_energy(memory);
    return res;
  }
};

struct PassOutput {
  double seconds = 0.0;
  std::string text;  ///< canonical result text (checked passes only)
  u64 windows = 0;
  u64 reencodes = 0;
  u64 drops = 0;
};

void add_cnt_counts(PassOutput& out, const PolicySet& ps) {
  if (!ps.cnt_policy) return;
  out.windows += ps.cnt_policy->stats().windows_evaluated;
  out.reencodes += ps.cnt_policy->stats().reencodes_applied;
  out.drops += ps.cnt_policy->queue_stats().dropped_full;
}

/// One timed pass of `stage` over every input. Pipelines are built and
/// results collected outside the timed region.
PassOutput run_pass(std::span<const LadderInput> inputs,
                    const LadderConfig& cfg, usize stage, bool want_text,
                    std::vector<MemAccess>& batch) {
  PassOutput out;
  for (const LadderInput& in : inputs) {
    if (stage == kSource) {
      const auto t0 = Clock::now();
      const u64 sum = drain(*in.source, batch);
      out.seconds += seconds_between(t0, Clock::now());
      if (sum == 0 && in.source->size_hint().value_or(1) != 0) {
        throw std::logic_error("perfbench: source drained nothing");
      }
      continue;
    }
    if (stage == kStats) {
      cnt::TraceStatsAccumulator acc;
      const auto t0 = Clock::now();
      feed_only(*in.source, batch, acc);
      out.seconds += seconds_between(t0, Clock::now());
      continue;
    }
    if (cfg.hierarchy) {
      HierPipeline p(cfg, stage, in.init);
      const auto t0 = Clock::now();
      p.replay(*in.source, batch);
      out.seconds += seconds_between(t0, Clock::now());
      if (want_text) out.text += hierarchy_text(p.result(cfg));
      for (const PolicySet& ps : p.levels) add_cnt_counts(out, ps);
    } else {
      const cnt::SimConfig sc = stage_config(cfg.single, cfg.fault, stage);
      SinglePipeline p(sc, stage, in.init);
      const auto t0 = Clock::now();
      p.replay(*in.source, batch, sc);
      out.seconds += seconds_between(t0, Clock::now());
      if (want_text) out.text += result_text(p.result(in.source->name()));
      add_cnt_counts(out, p.policies);
    }
  }
  return out;
}

/// The runner's own output for the configuration a checked stage matches.
std::string reference_text(std::span<const LadderInput> inputs,
                           const LadderConfig& cfg, usize stage) {
  std::string text;
  for (const LadderInput& in : inputs) {
    if (cfg.hierarchy) {
      text += hierarchy_text(cnt::run_hierarchy(cfg.hier, *in.source, in.init));
    } else {
      text += result_text(cnt::simulate(
          *in.source, in.init, stage_config(cfg.single, cfg.fault, stage)));
    }
  }
  return text;
}

}  // namespace

LadderResult run_ladder(std::span<const LadderInput> inputs,
                        const LadderConfig& cfg, usize min_reps,
                        usize max_reps, double budget_s, SpanLog& spans,
                        i64 parent) {
  LadderResult res;
  for (const LadderInput& in : inputs) {
    res.accesses += in.source->size_hint().value_or(0);
  }
  if (res.accesses == 0) throw std::invalid_argument("perfbench: empty ladder");
  // run_hierarchy() can express the kCnt stage only; simulate() every
  // stage from kCnt up (policy subsets and the fault campaign).
  const std::vector<usize> checked =
      cfg.hierarchy ? std::vector<usize>{kCnt}
                    : std::vector<usize>{kCnt, kIdeal, kFault};

  std::vector<MemAccess> batch(4096);
  std::array<std::vector<double>, kStageCount> stage_s;
  const auto start = Clock::now();
  for (usize rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps && seconds_between(start, Clock::now()) > budget_s) {
      break;
    }
    for (usize stage = 0; stage < kStageCount; ++stage) {
      const bool check =
          rep == 0 && std::find(checked.begin(), checked.end(), stage) !=
                          checked.end();
      const auto t0 = Clock::now();
      const PassOutput pass = run_pass(inputs, cfg, stage, check, batch);
      spans.add(std::string("ladder.") + kStageNames[stage], t0, Clock::now(),
                parent, static_cast<i64>(rep));
      stage_s[stage].push_back(pass.seconds);
      if (rep == 0 && stage == kCnt) {
        res.windows_evaluated = pass.windows;
        res.reencodes_applied = pass.reencodes;
        res.fifo_drops = pass.drops;
      }
      if (check) {
        const bool ok = pass.text == reference_text(inputs, cfg, stage);
        res.checks.push_back(
            {std::string("ladder stage ") + kStageNames[stage] + " == " +
                 (cfg.hierarchy ? "run_hierarchy()" : "simulate()"),
             ok});
      }
    }
    ++res.reps;
  }
  const double per_access = 1e9 / static_cast<double>(res.accesses);
  for (usize stage = 0; stage < kStageCount; ++stage) {
    res.stage_ns[stage] = quantile(stage_s[stage], 0.0) * per_access;
    res.layer_ns[stage] =
        (res.stage_ns[stage] - (stage == 0 ? 0.0 : res.stage_ns[stage - 1]));
  }
  return res;
}

double policy_setup_us(const LadderConfig& cfg, Stage upto) {
  constexpr usize kReps = 41;
  std::vector<double> us;
  us.reserve(kReps);
  cnt::MainMemory memory;
  for (usize rep = 0; rep < kReps; ++rep) {
    if (cfg.hierarchy) {
      cnt::Hierarchy h(cfg.hier.hierarchy, memory);
      const std::array<cnt::Cache*, 3> caches = {&h.l1i(), &h.l1d(), &h.l2()};
      const std::array<bool, 3> adaptive = {
          cfg.hier.cnt_at_l1i, cfg.hier.cnt_at_l1d, cfg.hier.cnt_at_l2};
      std::vector<std::unique_ptr<cnt::EnergyPolicyBase>> policies;
      const auto t0 = Clock::now();
      for (usize i = 0; i < 3; ++i) {
        const cnt::ArrayGeometry geom = cnt::geometry_of(caches[i]->config());
        if (adaptive[i]) {
          policies.push_back(std::make_unique<cnt::CntPolicy>(
              "cnt", cfg.hier.tech, geom,
              i == 2 ? cfg.hier.l2_cnt : cfg.hier.l1_cnt));
        } else {
          policies.push_back(
              std::make_unique<cnt::PlainPolicy>("base", cfg.hier.tech, geom));
        }
        caches[i]->add_sink(*policies.back());
      }
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    } else {
      const cnt::SimConfig sc = stage_config(cfg.single, cfg.fault, upto);
      cnt::Cache cache(sc.cache, memory);
      PolicySet ps;
      const auto t0 = Clock::now();
      ps.attach(cache, sc, upto);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
  }
  return median(std::move(us));
}

}  // namespace perfbench
