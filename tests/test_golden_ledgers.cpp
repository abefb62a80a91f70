// Ledger byte-identity wall for the data-oriented hot path.
//
// The cache core, the encoding kernels, and the replay loop are rewritten
// for speed (docs/performance.md); the contract of every such rewrite is
// that it changes *throughput only*, never results. These tests pin the
// full JSON rendering of representative runs -- per-policy, per-category
// joules with charge counts -- against golden fixtures captured from the
// pre-refactor implementation. A single double that rounds differently,
// one reordered floating-point addition, or a changed charge sequence
// shows up as a byte diff here.
//
// Scenarios cover the three hot-path regimes:
//   * suite_stream_copy / suite_zipf_kv: in-RAM default-suite workloads
//     (AoS->SoA cache metadata, word-packed encode/popcount kernels),
//   * srv_stream: a srv_* server-traffic trace replayed from a chunked
//     on-disk .trs file (batched TraceSource pull loop),
//   * fault_secded: a fault campaign with SECDED protection (the fault
//     hook rides the same array paths the refactor touched),
//   * hierarchy_srv_writeburst: simulate_hierarchy() over ifetch plus the
//     sparse srv_writeburst init image (the backing store's sparse load
//     and the L1 -> L2 -> DRAM line traffic).
//
// Regenerating fixtures is a deliberate act: run with CNT_UPDATE_GOLDEN=1
// and commit the diff with an explanation of why results were allowed to
// change. The variable is read once per process, so a stray environment
// cannot silently re-baseline a CI run.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/workload_suite.hpp"
#include "scratch_dir.hpp"

namespace cnt {
namespace {

std::string golden_dir() { return CNT_GOLDEN_DIR; }

// Render a result exactly the way the perf bench fingerprints ledgers:
// full dump_json with the workload label normalized (streamed runs are
// named after their temp file path, which must not leak into the bytes).
std::string render(SimResult r) {
  r.workload = "golden";
  std::ostringstream os;
  dump_json(r, os);
  os << '\n';
  return os.str();
}

void check_against_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_dir() + "/" + name + ".json";
  if (std::getenv("CNT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);  // cnt-lint: io-ok regenerating a golden file
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden fixture regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "golden fixture missing: " << path
      << " (regenerate deliberately with CNT_UPDATE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  // EXPECT_EQ on multi-KB strings prints an unreadable blob; compare
  // byte counts first, then the contents.
  EXPECT_EQ(want.str().size(), got.size()) << name << ": size differs";
  EXPECT_TRUE(want.str() == got)
      << name << ": rendered ledger diverged from the golden fixture";
}

SimConfig small_config() {
  SimConfig cfg;  // default 32K/4w L1D, all policies on
  return cfg;
}

TEST(GoldenLedgers, SuiteStreamCopy) {
  const Workload w = build_workload("stream_copy", /*scale=*/0.25);
  check_against_golden("suite_stream_copy", render(simulate(w, small_config())));
}

TEST(GoldenLedgers, SuiteZipfKv) {
  const Workload w = build_workload("zipf_kv", /*scale=*/0.1);
  check_against_golden("suite_zipf_kv", render(simulate(w, small_config())));
}

TEST(GoldenLedgers, SrvStreamedReplay) {
  // A small srv_-style server-traffic trace, written to disk in the
  // chunked CNTTRS format and replayed through the batched streaming
  // path -- the loop perfbench's replay_stream workload times.
  gen::ServerTrafficParams p;
  p.records = usize{1} << 14;
  p.ops = 30000;
  const test::ScratchDir dir;
  const std::string path = dir / "srv_stream.trs";
  {
    stream::StreamTraceWriter writer(path);
    (void)gen::generate_server_traffic(p, writer);
    writer.finish();
  }
  stream::StreamTraceSource source(path);
  const SimResult r = simulate(source, {}, small_config());
  check_against_golden("srv_stream", render(r));
}

TEST(GoldenLedgers, FaultSecded) {
  SimConfig cfg = small_config();
  cfg.fault.stuck_per_mbit = 40.0;
  cfg.fault.transient_per_read = 1e-7;
  cfg.fault.protection = ProtectionScheme::kSecded;
  const Workload w = build_workload("zipf_kv", /*scale=*/0.1);
  check_against_golden("fault_secded", render(simulate(w, cfg)));
}

// Exact rendering of a double: C99 hex float, independent of decimal
// rounding.
std::string hex(double v) {
  std::array<char, 40> buf{};
  (void)std::snprintf(buf.data(), buf.size(), "%a", v);
  return buf.data();
}
std::string hex(Energy e) { return hex(e.in_joules()); }

// Per-level ledgers (hex joules plus charge counts), full cache stats,
// DRAM energy and the backing store's traffic counters.
std::string render(const HierarchyRunResult& r, const MemoryTraffic& memory) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.key("levels");
  j.begin_array();
  for (const LevelResult& l : r.levels) {
    j.begin_object();
    j.kv("level", l.level);
    j.kv("adaptive", l.adaptive);
    j.key("cache");
    j.begin_object();
    j.kv("accesses", l.stats.accesses);
    j.kv("read_hits", l.stats.read_hits);
    j.kv("read_misses", l.stats.read_misses);
    j.kv("write_hits", l.stats.write_hits);
    j.kv("write_misses", l.stats.write_misses);
    j.kv("write_arounds", l.stats.write_arounds);
    j.kv("fills", l.stats.fills);
    j.kv("evictions", l.stats.evictions);
    j.kv("writebacks", l.stats.writebacks);
    j.end_object();
    j.kv("total_j", hex(l.ledger.total()));
    j.key("categories");
    j.begin_object();
    for (usize c = 0; c < static_cast<usize>(EnergyCategory::kCount); ++c) {
      const auto cat = static_cast<EnergyCategory>(c);
      if (l.ledger.count(cat) == 0) continue;
      j.key(to_string(cat));
      j.begin_object();
      j.kv("joules", hex(l.ledger.get(cat)));
      j.kv("charges", l.ledger.count(cat));
      j.end_object();
    }
    j.end_object();
    j.end_object();
  }
  j.end_array();
  j.kv("dram_j", hex(r.dram_energy));
  j.key("memory");
  j.begin_object();
  j.kv("line_reads", memory.line_reads);
  j.kv("line_writes", memory.line_writes);
  j.kv("word_writes", memory.word_writes);
  j.end_object();
  j.end_object();
  os << '\n';
  return os.str();
}

TEST(GoldenLedgers, HierarchySrvWriteburst) {
  // The sparse init path: srv_writeburst's record table is thousands of
  // 8-byte runs, so the backing store's load, fills and writebacks all
  // cross the sparse representation. CNT-Cache at every level exercises
  // the L1 -> L2 write path.
  const Workload code = build_workload("ifetch", /*scale=*/0.05);
  const Workload data = build_workload("srv_writeburst", /*scale=*/0.02);
  HierarchyRunConfig cfg;
  cfg.cnt_at_l1i = cfg.cnt_at_l1d = cfg.cnt_at_l2 = true;
  // One replay with the baseline and CNT-Cache at every level: the
  // CNT-Cache ledgers through placement_view() and the traffic counters
  // straight from the run's backing store.
  const Workload mixed = interleave(code, data);
  VectorTraceSource source(mixed.trace);
  const HierarchySimResult run =
      simulate_hierarchy(source, mixed.init, hierarchy_levels(cfg));
  check_against_golden(
      "hierarchy_srv_writeburst",
      render(placement_view(run, cfg), run.memory));
}

}  // namespace
}  // namespace cnt
