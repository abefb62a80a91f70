#include "sim/runner.hpp"

#include <memory>
#include <span>
#include <stdexcept>

#include "cache/cache.hpp"
#include "cache/main_memory.hpp"
#include "common/cancel.hpp"
#include "cnt/baseline_policies.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {

namespace {

// Inner replay loop, one batch per call. The caller owns the batch
// buffer and all per-run config; this function stays allocation-free so
// replay throughput is bounded by the cache model, not the heap.
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

Energy SimResult::energy(std::string_view name) const {
  const auto* p = find(name);
  if (p == nullptr) {
    throw std::out_of_range("SimResult: no policy named " + std::string(name));
  }
  return p->total();
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
  const ArrayGeometry geom = geometry_of(cfg.cache);

  // Fault campaign: one shared corruption substrate for the functional
  // run (the data array is policy-agnostic), plus the CNT policy's
  // direction-bit domain. Disabled => no hook, no check bits, and results
  // byte-identical to a fault-free build.
  std::unique_ptr<FaultCampaign> campaign;
  if (cfg.fault.enabled()) {
    campaign = std::make_unique<FaultCampaign>(
        cfg.fault, cfg.cache.sets(), cfg.cache.ways, cfg.cache.line_bytes,
        cfg.cnt.partitions);
    cache.set_fault_hook(campaign.get());
  }
  // Baseline-family arrays protect the data line; the CNT array's codeword
  // additionally covers its K direction bits. Check bits widen the row
  // (meta_bits), so decode and leakage see the protected geometry.
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

  auto baseline = std::make_unique<PlainPolicy>(std::string(kPolicyBaseline),
                                                cfg.tech, data_geom, wg);
  auto cnt_policy = std::make_unique<CntPolicy>(std::string(kPolicyCnt),
                                                cfg.tech, cnt_geom, cfg.cnt);
  baseline->set_protection(data_prot);
  cnt_policy->set_protection(cnt_prot);
  cnt_policy->attach_direction_hook(campaign.get());
  cache.add_sink(*baseline);
  cache.add_sink(*cnt_policy);

  std::unique_ptr<PlainPolicy> cmos;
  std::unique_ptr<StaticInvertPolicy> static_inv;
  std::unique_ptr<IdealPolicy> ideal;
  if (cfg.with_cmos) {
    cmos = std::make_unique<PlainPolicy>(std::string(kPolicyCmos),
                                         cfg.cmos_tech, data_geom, wg);
    cmos->set_protection(data_prot);
    cache.add_sink(*cmos);
  }
  if (cfg.with_static) {
    static_inv = std::make_unique<StaticInvertPolicy>(
        std::string(kPolicyStatic), cfg.tech, data_geom, wg);
    static_inv->set_protection(data_prot);
    cache.add_sink(*static_inv);
  }
  if (cfg.with_ideal) {
    ideal = std::make_unique<IdealPolicy>(std::string(kPolicyIdeal), cfg.tech,
                                          data_geom, cfg.cnt.partitions, wg);
    ideal->set_protection(data_prot);
    cache.add_sink(*ideal);
  }

  // Pull in batches: keeps virtual dispatch off the per-access path and
  // bounds resident memory at one batch + one decoded chunk regardless of
  // trace length. Statistics accumulate inline on the un-routed access --
  // the same accumulator Trace::stats() uses -- so streamed and in-RAM
  // replay report identical TraceStats.
  source.reset();
  TraceStatsAccumulator stats_acc;
  std::vector<MemAccess> batch(4096);
  const u64 line_mask = ~static_cast<u64>(cfg.cache.line_bytes - 1);
  // Warming the cache's own set arrays only pays when the data store
  // outgrows the CPU's caches; for KiB-scale configs the set is already
  // resident and the extra prefetches are pure overhead.
  const bool warm_sets = cfg.cache.size_bytes > (usize{1} << 21);
  for (;;) {
    // Cooperative cancellation, once per 4096-access batch (one relaxed
    // atomic load, docs/robustness.md) -- never inside replay_batch.
    cancel::throw_if_cancelled("sim.replay");
    const usize got = source.next(batch);
    if (got == 0) break;
    replay_batch(cache, memory, stats_acc,
                 std::span<const MemAccess>(batch.data(), got), line_mask,
                 cfg.cache.line_bytes, warm_sets);
  }

  SimResult res;
  res.workload = source.name();
  res.trace_stats = stats_acc.finish();
  res.cache_stats = cache.stats();
  if (campaign) {
    res.has_fault = true;
    res.fault_stats = campaign->stats();
  }

  auto take = [&res](const EnergyPolicyBase& p) {
    PolicyResult pr;
    pr.name = p.name();
    pr.ledger = p.ledger();
    res.policies.push_back(std::move(pr));
  };

  if (cmos) take(*cmos);
  take(*baseline);
  if (static_inv) take(*static_inv);
  {
    PolicyResult pr;
    pr.name = cnt_policy->name();
    pr.ledger = cnt_policy->ledger();
    pr.has_cnt_stats = true;
    pr.cnt_stats = cnt_policy->stats();
    pr.queue_stats = cnt_policy->queue_stats();
    res.policies.push_back(std::move(pr));
  }
  if (ideal) take(*ideal);
  return res;
}

SimResult simulate(const Workload& w, const SimConfig& cfg) {
  VectorTraceSource source(w.trace);
  SimResult res = simulate(source, w.init, cfg);
  res.workload = w.name;
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
