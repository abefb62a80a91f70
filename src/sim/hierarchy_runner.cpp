#include "sim/hierarchy_runner.hpp"

#include <span>
#include <stdexcept>

namespace cnt {

Energy HierarchyRunResult::cache_total() const {
  Energy total{};
  for (const auto& l : levels) total += l.ledger.total();
  return total;
}

const LevelResult& HierarchyRunResult::level(std::string_view name) const {
  for (const auto& l : levels) {
    if (l.level == name) return l;
  }
  throw std::out_of_range("HierarchyRunResult: no level named " +
                          std::string(name));
}

std::vector<LevelSetup> hierarchy_levels(const HierarchyRunConfig& cfg) {
  const HierarchyConfig& h = cfg.hierarchy;
  const CacheConfig* caches[] = {&h.l1i, &h.l1d, &h.l2};
  std::vector<LevelSetup> levels(h.enable_l2 ? 3 : 2);
  for (usize i = 0; i < levels.size(); ++i) {
    SimConfig& c = levels[i].cfg;
    c.cache = *caches[i];
    c.tech = cfg.tech;
    c.cnt = i == 2 ? cfg.l2_cnt : cfg.l1_cnt;
    levels[i].policies = {.baseline = true, .cnt = true};
  }
  return levels;
}

HierarchyRunResult placement_view(const HierarchySimResult& run,
                                  const HierarchyRunConfig& cfg) {
  constexpr const char* kNames[] = {"L1I", "L1D", "L2"};
  const bool adaptive[] = {cfg.cnt_at_l1i, cfg.cnt_at_l1d, cfg.cnt_at_l2};
  HierarchyRunResult res;
  for (usize i = 0; i < run.levels.size(); ++i) {
    const SimResult& l = run.levels[i];
    const auto& placed = l.policy(adaptive[i] ? kPolicyCnt : kPolicyBaseline);
    res.levels.push_back(
        {kNames[i], adaptive[i], placed.ledger, l.cache_stats});
  }
  res.dram_energy = cfg.dram.traffic_energy(run.memory);
  return res;
}

HierarchyRunResult run_hierarchy(const HierarchyRunConfig& cfg,
                                 TraceSource& source,
                                 std::span<const MemorySegment> init) {
  // One policy per level: the placed one.
  const bool adaptive[] = {cfg.cnt_at_l1i, cfg.cnt_at_l1d, cfg.cnt_at_l2};
  std::vector<LevelSetup> levels = hierarchy_levels(cfg);
  for (usize i = 0; i < levels.size(); ++i) {
    levels[i].policies = {.baseline = !adaptive[i], .cnt = adaptive[i]};
  }
  return placement_view(simulate_hierarchy(source, init, levels), cfg);
}

}  // namespace cnt
