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
//     hook rides the same array paths the refactor touched).
//
// Regenerating fixtures is a deliberate act: run with CNT_UPDATE_GOLDEN=1
// and commit the diff with an explanation of why results were allowed to
// change. The variable is read once per process, so a stray environment
// cannot silently re-baseline a CI run.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/workload_suite.hpp"

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
  const std::string path =
      testing::TempDir() + "/golden_srv_stream.trs";
  {
    stream::StreamTraceWriter writer(path);
    (void)gen::generate_server_traffic(p, writer);
    writer.finish();
  }
  stream::StreamTraceSource source(path);
  const SimResult r = simulate(source, {}, small_config());
  (void)std::remove(path.c_str());
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

}  // namespace
}  // namespace cnt
