// Hierarchy demo: a split-L1 + unified-L2 system with CNT-Cache adaptive
// encoding applied at the L1s, fed by an interleaved instruction + data
// stream (about two fetches per data access).
//
//   $ ./hierarchy_demo 0.5   # workload scale
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/hierarchy_runner.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;

int main(int argc, char** argv) {
  double scale = 0.5;
  cli::Parser cli("hierarchy_demo", "Split L1 + L2, CNT-Cache at the L1s.");
  cli.positional(&scale, "scale", "workload scale (default 0.5)");
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  const Workload data = build_workload("zipf_kv", scale);
  const Workload code = build_workload("ifetch", scale);

  // Two placements: everything baseline, then CNT-Cache at the L1s.
  HierarchyRunConfig base_cfg;
  base_cfg.cnt_at_l1i = base_cfg.cnt_at_l1d = base_cfg.cnt_at_l2 = false;
  HierarchyRunConfig cnt_cfg;  // defaults: CNT at L1I + L1D

  // One replay with both policies at every level serves both placements.
  const Workload mixed = interleave(code, data);
  VectorTraceSource source(mixed.trace);
  const HierarchySimResult run =
      simulate_hierarchy(source, mixed.init, hierarchy_levels(cnt_cfg));
  const HierarchyRunResult base = placement_view(run, base_cfg);
  const HierarchyRunResult cnt = placement_view(run, cnt_cfg);

  Table t({"level", "accesses", "hit%", "baseline", "CNT-Cache", "saving"});
  for (const char* level : {"L1I", "L1D", "L2"}) {
    const auto& b = base.level(level);
    const auto& c = cnt.level(level);
    const double bj = b.ledger.total().in_joules();
    const double cj = c.ledger.total().in_joules();
    t.add_row({level, std::to_string(b.stats.accesses),
               Table::pct(b.stats.hit_rate()), b.ledger.total().to_string(),
               c.ledger.total().to_string(),
               Table::pct(bj > 0 ? 1.0 - cj / bj : 0.0)});
  }
  t.add_row({"caches", "", "", base.cache_total().to_string(),
             cnt.cache_total().to_string(),
             Table::pct(1.0 - cnt.cache_total() / base.cache_total())});

  std::cout << "Two-level hierarchy with CNT-Cache at the L1s\n"
            << "(zipf_kv data stream + Zipf basic-block ifetch stream)\n\n"
            << t.render() << "\n"
            << "DRAM traffic (unchanged by encoding): "
            << cnt.dram_energy.to_string() << "\n"
            << "L1 energy dominates (it absorbs nearly all accesses); the\n"
               "L2 sees only miss traffic and stays at baseline here.\n";
  return 0;
}
