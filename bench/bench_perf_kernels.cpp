// PERF -- core hot-path kernels, isolated: set lookup through the cache
// substrate, the partition popcount + encode kernel, a full end-to-end
// in-RAM replay through the policy stack, and the predictor's
// per-access window step. Each kernel reports
// ops/sec; together with bench_perf_stream_replay they pin the perf
// trajectory docs/performance.md describes.
//
//   bench_perf_kernels [--ops N]
//
// --ops scales every kernel's iteration count (default 2'000'000).
// Results land in $CNT_RESULTS_DIR (default ./results) as
// BENCH_kernels.json, schema cnt-bench-perf-v2 (stable identity fields
// split from run-varying "timing" objects), consumed by
// scripts/check_regression.py.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "figures.hpp"
#include "cache/cache.hpp"
#include "cache/main_memory.hpp"
#include "cnt/encoding.hpp"
#include "cnt/predictor.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exec/options.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/trace_source.hpp"

using namespace cnt;

namespace {

struct KernelResult {
  std::string name;
  u64 ops = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
};

template <typename Fn>
KernelResult time_kernel(const std::string& name, u64 ops, Fn&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  KernelResult r;
  r.name = name;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.ops_per_sec =
      r.seconds > 0 ? static_cast<double>(ops) / r.seconds : 0.0;
  return r;
}

/// Kernel 1: set lookup + hit path through the SoA cache substrate, no
/// energy sinks attached. A resident working set makes every access a
/// hit, so the measured cost is the probe/replacement/load path itself.
KernelResult kernel_cache_lookup(u64 ops) {
  CacheConfig cfg;
  cfg.size_bytes = 256 * 1024;
  cfg.ways = 8;
  MainMemory mem;
  Cache cache(cfg, mem);

  // Working set = half the cache; pre-generated pseudo-random access
  // pattern so the timed loop does no RNG work.
  const u64 ws_lines = (cfg.size_bytes / cfg.line_bytes) / 2;
  Rng rng(42);
  std::vector<MemAccess> pattern(65536);
  for (auto& a : pattern) {
    a.op = (rng.next() & 7) == 0 ? MemOp::kWrite : MemOp::kRead;
    a.addr = (rng.next() % ws_lines) * cfg.line_bytes +
             (rng.next() & 7) * 8;
    a.size = 8;
    a.value = rng.next();
  }
  for (const auto& a : pattern) cache.access(a);  // warm: all lines resident

  return time_kernel("cache_lookup", ops, [&] {
    for (u64 i = 0; i < ops; ++i) {
      cache.access(pattern[i & (pattern.size() - 1)]);
    }
  });
}

/// Kernel 2: per-partition popcount + adaptive encode over a 64-byte
/// line (the paper's default geometry, 8 partitions). One op = one
/// stored-ones pass plus one full-line encode -- the pair every fill
/// write performs.
KernelResult kernel_popcount_encode(u64 ops) {
  const PartitionScheme ps(64, 8);
  Rng rng(7);
  std::vector<u8> line(ps.line_bytes());
  for (auto& b : line) b = rng.next_byte();
  std::vector<u8> out(ps.line_bytes());

  volatile usize sink = 0;  // keep the popcounts observable
  return time_kernel("popcount_encode", ops, [&] {
    u64 dirs = 0x5a;
    for (u64 i = 0; i < ops; ++i) {
      usize ones = 0;
      for (usize p = 0; p < ps.partitions(); ++p) {
        ones += detail::partition_raw_ones(ps, line.data(), p);
      }
      sink = sink + ones;
      encode_line(ps, line, dirs, out);
      dirs = (dirs * 0x9e3779b97f4a7c15ULL) >> 56;  // vary the mask
      line[i & 63] ^= static_cast<u8>(i);
    }
  });
}

/// Kernel 3: end-to-end replay of an in-RAM server-traffic trace through
/// the full policy stack (baseline + CNT-Cache), the same path the
/// streamed bench times minus the chunked-file decode.
KernelResult kernel_replay(u64 ops) {
  gen::ServerTrafficParams p;
  p.ops = static_cast<usize>(ops / 5);  // ~5 accesses per server op
  Trace trace("kernels_replay");
  {
    TraceCollector collect(trace);
    (void)gen::generate_server_traffic(p, collect);
  }
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  VectorTraceSource source(trace);
  auto r = time_kernel("replay", trace.size(), [&] {
    (void)simulate(source, {}, cfg);
  });
  return r;
}

/// Kernel 4: Algorithm 1's per-access predictor step on one line (W = 15,
/// K = 8): a counter update every access, plus the partition recount and
/// threshold decision each time a window closes. Every fourth access is
/// a write.
KernelResult kernel_predictor_window(u64 ops) {
  const Predictor p(TechParams::cnfet().cell, PartitionScheme(64, 8), 15);
  Rng rng(5);
  std::vector<u8> line(64);
  for (auto& b : line) b = rng.next_byte();
  LineState state;
  volatile u64 sink = 0;  // keep the decisions observable
  return time_kernel("predictor_window", ops, [&] {
    for (u64 i = 0; i < ops; ++i) {
      sink = sink + p.on_access(state, (i & 3) == 0, line).new_directions;
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("PERF", "hot-path kernels: lookup, encode, replay, predictor");
  const u64 ops = exec::u64_from_args(argc, argv, "--ops", 2'000'000);

  try {
    std::vector<KernelResult> results;
    results.push_back(kernel_cache_lookup(ops));
    results.push_back(kernel_popcount_encode(ops));
    results.push_back(kernel_replay(ops));
    results.push_back(kernel_predictor_window(ops));

    for (const auto& r : results) {
      std::cout << r.name << ": " << r.ops << " ops in " << r.seconds
                << " s = " << r.ops_per_sec << " ops/sec\n";
    }

    const std::string json_path = result_path("BENCH_kernels.json");
    {
      io::AtomicFileWriter out(json_path, "bench");
      JsonWriter j(out.stream());
      j.begin_object();
      j.kv("schema", "cnt-bench-perf-v2");
      j.kv("bench", "kernels");
      // Perf numbers measured with failpoints armed are invalid;
      // check_regression.py refuses documents where this is true.
      j.kv("failpoints_enabled", fp::enabled());
      // Likewise a run with the job watchdog armed: cancellation polls
      // are still one relaxed load, but the environment is non-standard.
      j.kv("job_timeout_armed", exec::job_timeout_from_env(0) != 0);
      j.key("kernels").begin_array();
      for (const auto& r : results) {
        j.begin_object();
        j.kv("name", r.name);
        j.kv("ops", r.ops);
        j.key("timing").begin_object();
        j.kv("seconds", r.seconds);
        j.kv("ops_per_sec", r.ops_per_sec);
        j.end_object();
        j.end_object();
      }
      j.end_array();
      j.end_object();
      out.stream() << '\n';
      out.commit();
    }
    std::cout << "json: " << json_path << "\n";
  } catch (const std::exception& e) {
    return bench::report_error(e);
  }
  return 0;
}
