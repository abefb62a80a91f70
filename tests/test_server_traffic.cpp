// Server-traffic generator family (src/trace/gen/server_traffic.*):
// deterministic sink-based emission, address-keyed sparse init that
// covers exactly what the trace reads, and the scenario presets exposed
// through build_workload and the fig_traffic figure.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "trace/gen/gen_util.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

gen::ServerTrafficParams small_params() {
  gen::ServerTrafficParams p;
  p.records = 4096;
  p.ops = 3000;
  return p;
}

TEST(ServerTraffic, SinkEmissionIsDeterministic) {
  Trace a("a"), b("b");
  TraceCollector ca(a), cb(b);
  const u64 na = gen::generate_server_traffic(small_params(), ca);
  const u64 nb = gen::generate_server_traffic(small_params(), cb);
  ASSERT_EQ(na, nb);
  ASSERT_EQ(a.size(), na);
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(ServerTraffic, WorkloadWrapsTheSameStream) {
  Trace direct("direct");
  TraceCollector sink(direct);
  (void)gen::generate_server_traffic(small_params(), sink);
  const Workload w = gen::server_traffic(small_params());
  ASSERT_EQ(w.trace.size(), direct.size());
  for (usize i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(w.trace[i].addr, direct[i].addr);
    EXPECT_EQ(w.trace[i].op, direct[i].op);
  }
  EXPECT_EQ(w.name, "server_traffic");
  EXPECT_TRUE(w.trace.well_formed());
}

TEST(ServerTraffic, AddressesStayInTheirRegions) {
  const Workload w = gen::server_traffic(small_params());
  for (const auto& a : w.trace) {
    EXPECT_TRUE(a.valid());
    EXPECT_GE(a.addr, gen::kRegionA);
    EXPECT_LT(a.addr, gen::kRegionD);
  }
}

TEST(ServerTraffic, EveryReadIsCoveredByTheInitImage) {
  // The replayed simulation must never read memory the init image left
  // undefined -- unmapped words read zero, which would make the streamed
  // and suite paths diverge if coverage were incomplete.
  const Workload w = gen::server_traffic(small_params());
  ASSERT_FALSE(w.init.empty());
  for (const auto& a : w.trace) {
    if (a.is_write()) continue;
    bool covered = false;
    for (const auto& seg : w.init) {
      if (seg.covers(a.addr, a.size)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "uncovered read at 0x" << std::hex << a.addr;
    if (!covered) break;
  }
}

TEST(ServerTraffic, InitIsSparseNotDense) {
  // 4096 records span 256 KiB of table plus index and heap, but a 3000-op
  // zipfian run touches a fraction of it; the resident image must scale
  // with touched words, not the address span.
  const Workload w = gen::server_traffic(small_params());
  usize span = 0;
  for (const auto& seg : w.init) span += seg.length();
  EXPECT_GT(span, usize{4096} * 64);
  EXPECT_LT(w.init_resident_bytes(), span / 2);
  EXPECT_GT(w.init_resident_bytes(), 0u);
}

TEST(ServerTraffic, InitValuesAreAddressKeyed) {
  // Same params -> same image, regardless of which trace instance asked.
  const gen::ServerTrafficParams p = small_params();
  const Workload w = gen::server_traffic(p);
  const auto again = gen::server_traffic_init(p, w.trace);
  ASSERT_EQ(again.size(), w.init.size());
  for (usize s = 0; s < again.size(); ++s) {
    EXPECT_EQ(again[s].base, w.init[s].base);
    EXPECT_EQ(again[s].resident_bytes(), w.init[s].resident_bytes());
  }
}

TEST(ServerTraffic, ScenariosAreDistinctAndBuildable) {
  const auto& scenarios = gen::traffic_scenarios();
  ASSERT_GE(scenarios.size(), 5u);
  std::set<std::string> names;
  std::set<u64> seeds;
  for (const auto& sc : scenarios) {
    EXPECT_TRUE(names.insert(sc.name).second) << sc.name;
    EXPECT_TRUE(seeds.insert(sc.params.seed).second) << sc.name;
    EXPECT_EQ(sc.name.rfind("srv_", 0), 0u)
        << "scenario names carry the srv_ prefix: " << sc.name;
    EXPECT_FALSE(sc.description.empty());
  }
  // Scenario presets resolve through build_workload (the bench path).
  const Workload w = build_workload("srv_steady", 0.05);
  EXPECT_EQ(w.name, "srv_steady");
  EXPECT_EQ(w.trace.name(), "srv_steady");
  EXPECT_TRUE(w.trace.well_formed());
  EXPECT_FALSE(w.init.empty());
}

TEST(ServerTraffic, ScenarioTracesDiffer) {
  // Each preset probes a different axis, so the streams must differ.
  const Workload steady = build_workload("srv_steady", 0.05);
  const Workload scan = build_workload("srv_scan", 0.05);
  const Workload burst = build_workload("srv_writeburst", 0.05);
  EXPECT_NE(steady.trace.size(), scan.trace.size());
  const auto writes = [](const Workload& w) {
    usize n = 0;
    for (const auto& a : w.trace) n += a.is_write() ? 1u : 0u;
    return n;
  };
  EXPECT_GT(writes(burst) * steady.trace.size(),
            writes(steady) * burst.trace.size())
      << "srv_writeburst must be write-heavier than srv_steady";
}

TEST(ServerTraffic, DefaultSuiteIsUntouched) {
  // The scenario family rides outside the pinned ten-entry suite.
  EXPECT_EQ(default_suite().size(), 10u);
  for (const auto& e : default_suite()) {
    EXPECT_EQ(e.name.rfind("srv_", 0), std::string::npos);
  }
}

}  // namespace
}  // namespace cnt
