#include "sim/runner.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/main_memory.hpp"
#include "common/cancel.hpp"
#include "cnt/baseline_policies.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {

namespace {

// Inner single-cache replay loop, one batch per call. The caller owns the
// batch buffer and all per-run config; this function stays allocation-free
// so replay throughput is bounded by the cache model, not the heap.
// cnt-hot
void replay_batch(Cache& cache, MainMemory& memory,
                  TraceStatsAccumulator& stats_acc,
                  std::span<const MemAccess> batch, u64 line_mask,
                  usize line_bytes, bool warm_sets) {
  // How many accesses ahead to warm the backing store for a potential
  // fill. Far enough to cover a DRAM round-trip at replay speed, near
  // enough that the lines are still cached when the fill copies them.
  constexpr usize kPrefetchDistance = 8;
  const usize got = batch.size();
  for (usize i = 0; i < got; ++i) {
    if (i + kPrefetchDistance < got) {
      const u64 ahead = batch[i + kPrefetchDistance].addr;
      if (warm_sets) cache.prefetch(ahead);
      memory.prefetch_line(ahead & line_mask, line_bytes);
    }
    stats_acc.feed(batch[i]);
    // A single-cache study treats instruction fetches as reads.
    MemAccess routed = batch[i];
    if (routed.op == MemOp::kIFetch) routed.op = MemOp::kRead;
    cache.access(routed);
  }
}

// The one pull loop: rewind, then hand `replay` one batch at a time. Batches
// keep virtual dispatch off the per-access path and bound resident memory
// at one batch + one decoded chunk regardless of trace length.
template <class Replay>
void pull_batches(TraceSource& source, Replay&& replay) {
  source.reset();
  std::vector<MemAccess> batch(4096);
  for (;;) {
    // Cooperative cancellation, once per 4096-access batch (one relaxed
    // atomic load, docs/robustness.md) -- never inside a batch.
    cancel::throw_if_cancelled("sim.replay");
    const usize got = source.next(batch);
    if (got == 0) break;
    replay(std::span<const MemAccess>(batch.data(), got));
  }
}

// What one cache carries: its fault campaign and the energy policies of a
// PolicySet, attached in report order. The only place that attaches
// energy policies to a cache.
class Observers {
 public:
  Observers(Cache& cache, const SimConfig& cfg, PolicySet set)
      : cache_(&cache) {
    const ArrayGeometry geom = geometry_of(cfg.cache);
    // Fault campaign: one shared corruption substrate for the functional
    // run (the data array is policy-agnostic), plus the CNT policy's
    // direction-bit domain. Disabled => no hook, no check bits, and
    // results byte-identical to a fault-free build.
    if (cfg.fault.enabled()) {
      campaign_ = std::make_unique<FaultCampaign>(
          cfg.fault, cfg.cache.sets(), cfg.cache.ways, cfg.cache.line_bytes,
          cfg.cnt.partitions);
      cache.set_fault_hook(campaign_.get());
    }
    // Baseline-family arrays protect the data line; the CNT array's
    // codeword additionally covers its K direction bits. Check bits widen
    // the row (meta_bits), so decode and leakage see the protected
    // geometry.
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
    // Every policy uses the same write-accounting granularity so the
    // comparison isolates the encoding scheme.
    const WriteGranularity wg = cfg.cnt.write_granularity;

    auto attach = [&](std::unique_ptr<EnergyPolicyBase> p) {
      p->set_protection(p.get() == cnt_ ? cnt_prot : data_prot);
      cache.add_sink(*p);
      policies_.push_back(std::move(p));
    };
    if (set.cmos) {
      attach(std::make_unique<PlainPolicy>(std::string(kPolicyCmos),
                                           cfg.cmos_tech, data_geom, wg));
    }
    if (set.baseline) {
      attach(std::make_unique<PlainPolicy>(std::string(kPolicyBaseline),
                                           cfg.tech, data_geom, wg));
    }
    if (set.static_inv) {
      attach(std::make_unique<StaticInvertPolicy>(std::string(kPolicyStatic),
                                                  cfg.tech, data_geom, wg));
    }
    if (set.cnt) {
      auto p = std::make_unique<CntPolicy>(std::string(kPolicyCnt), cfg.tech,
                                           cnt_geom, cfg.cnt);
      p->attach_direction_hook(campaign_.get());
      cnt_ = p.get();
      attach(std::move(p));
    }
    if (set.ideal) {
      attach(std::make_unique<IdealPolicy>(std::string(kPolicyIdeal), cfg.tech,
                                           data_geom, cfg.cnt.partitions, wg));
    }
  }

  /// The cache's stats, the policies' results in report order and the
  /// campaign's tallies; no trace stats.
  [[nodiscard]] SimResult result(const std::string& workload) const {
    SimResult res;
    res.workload = workload;
    res.cache_stats = cache_->stats();
    for (const auto& p : policies_) {
      PolicyResult& pr = res.policies.emplace_back();
      pr.name = p->name();
      pr.ledger = p->ledger();
      if (p.get() == cnt_) {
        pr.has_cnt_stats = true;
        pr.cnt_stats = cnt_->stats();
        pr.queue_stats = cnt_->queue_stats();
      }
    }
    if (campaign_) {
      res.has_fault = true;
      res.fault_stats = campaign_->stats();
    }
    return res;
  }

 private:
  const Cache* cache_;
  std::unique_ptr<FaultCampaign> campaign_;
  std::vector<std::unique_ptr<EnergyPolicyBase>> policies_;
  const CntPolicy* cnt_ = nullptr;
};

}  // namespace

SimConfig::SimConfig()
    : tech(TechParams::cnfet()), cmos_tech(TechParams::cmos()) {
  cache.name = "L1D";
  cache.size_bytes = 32 * 1024;
  cache.ways = 4;
  cache.line_bytes = 64;
}

const PolicyResult* SimResult::find(std::string_view name) const {
  for (const auto& p : policies) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const PolicyResult& SimResult::policy(std::string_view name) const {
  const auto* p = find(name);
  if (p == nullptr) {
    throw std::out_of_range("SimResult: no policy named " + std::string(name));
  }
  return *p;
}

double SimResult::saving(std::string_view opt, std::string_view base) const {
  const double b = energy(base).in_joules();
  const double o = energy(opt).in_joules();
  return b <= 0.0 ? 0.0 : 1.0 - o / b;
}

SimResult simulate(TraceSource& source, std::span<const MemorySegment> init,
                   const SimConfig& cfg) {
  cfg.fault.validate();
  MainMemory memory;
  memory.load(init);
  Cache cache(cfg.cache, memory);
  const Observers observers(cache, cfg,
                            {.cmos = cfg.with_cmos,
                             .baseline = true,
                             .static_inv = cfg.with_static,
                             .cnt = true,
                             .ideal = cfg.with_ideal});

  // Statistics accumulate inline on the un-routed access -- the same
  // accumulator Trace::stats() uses -- so streamed and in-RAM replay
  // report identical TraceStats.
  TraceStatsAccumulator stats_acc;
  const u64 line_mask = ~static_cast<u64>(cfg.cache.line_bytes - 1);
  // Warming the cache's own set arrays only pays when the data store
  // outgrows the CPU's caches; for KiB-scale configs the set is already
  // resident and the extra prefetches are pure overhead.
  const bool warm_sets = cfg.cache.size_bytes > (usize{1} << 21);
  pull_batches(source, [&](std::span<const MemAccess> batch) {
    replay_batch(cache, memory, stats_acc, batch, line_mask,
                 cfg.cache.line_bytes, warm_sets);
  });

  SimResult res = observers.result(source.name());
  res.trace_stats = stats_acc.finish();
  return res;
}

SimResult simulate(const Workload& w, const SimConfig& cfg) {
  VectorTraceSource source(w.trace);
  SimResult res = simulate(source, w.init, cfg);
  res.workload = w.name;
  return res;
}

HierarchySimResult simulate_hierarchy(TraceSource& source,
                                      std::span<const MemorySegment> init,
                                      std::span<const LevelSetup> levels) {
  const auto faulty = [](const LevelSetup& l) { return l.cfg.fault.enabled(); };
  if (levels.size() < 2 || levels.size() > 3 ||
      std::ranges::any_of(levels, faulty)) {
    throw std::invalid_argument(
        "simulate_hierarchy: wants fault-free L1I, L1D and optional L2");
  }
  HierarchyConfig topology;
  topology.l1i = levels[0].cfg.cache;
  topology.l1d = levels[1].cfg.cache;
  topology.enable_l2 = levels.size() == 3;
  if (topology.enable_l2) topology.l2 = levels[2].cfg.cache;

  MainMemory memory;
  memory.load(init);
  Hierarchy h(topology, memory);
  std::vector<Observers> observers;
  for (usize i = 0; i < levels.size(); ++i) {
    Cache& cache = i == 0 ? h.l1i() : i == 1 ? h.l1d() : h.l2();
    observers.emplace_back(cache, levels[i].cfg, levels[i].policies);
  }
  // Hierarchy::run routes IFetch to L1I and everything else to L1D.
  pull_batches(source,
               [&h](std::span<const MemAccess> batch) { h.run(batch); });

  HierarchySimResult res;
  for (const Observers& o : observers) {
    res.levels.push_back(o.result(source.name()));
  }
  res.memory = memory.traffic();
  return res;
}

std::vector<SimResult> run_suite(const SimConfig& cfg, double scale,
                                 u64 seed_offset) {
  std::vector<SimResult> results;
  for (const auto& entry : default_suite()) {
    results.push_back(simulate(entry.build(scale, seed_offset), cfg));
  }
  return results;
}

}  // namespace cnt
