// PERF -- streamed-replay throughput and memory bound: generate a
// server-traffic trace straight to disk (CNTTRS, docs/trace_streaming.md),
// replay it through the cache and energy models from the chunked reader,
// and report accesses/sec plus peak RSS. A second, small, both-fit-in-RAM
// leg replays the identical access stream once materialized and once
// streamed and asserts the energy ledgers render byte-identically --
// streaming must be a pure I/O change, never a results change.
//
//   bench_perf_stream_replay [--bytes N] [--chunk-capacity N] [--keep-trace]
//
// --bytes targets the on-disk trace size (default 32 MiB; the acceptance
// run uses >= 1 GiB). Results land in $CNT_RESULTS_DIR (default
// ./results) as BENCH_stream_replay.json, schema cnt-bench-perf-v2
// (stable identity fields split from the run-varying "timing" object so
// perf JSONs diff cleanly), consumed by scripts/check_regression.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "figures.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "exec/options.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/stream/trace_source.hpp"

using namespace cnt;

namespace {

u64 peak_rss_bytes() {
#if defined(__unix__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<u64>(ru.ru_maxrss) * 1024;  // ru_maxrss is in KiB
  }
#endif
  return 0;
}

u64 file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto pos = in.tellg();
  return pos < 0 ? 0 : static_cast<u64>(pos);
}

/// Render a result's ledger-relevant fields to a comparable string. The
/// workload label is normalized away: the in-RAM leg is named after its
/// trace, the streamed leg after its file path.
std::string ledger_fingerprint(SimResult r) {
  r.workload = "replay";
  std::ostringstream os;
  dump_json(r, os);
  return os.str();
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("PERF", "streamed trace replay (throughput + memory bound)");
  const u64 target_bytes =
      exec::u64_from_args(argc, argv, "--bytes", u64{32} << 20);
  const u64 chunk_capacity = exec::u64_from_args(
      argc, argv, "--chunk-capacity", stream::kDefaultChunkCapacity);
  const bool keep_trace = has_flag(argc, argv, "--keep-trace");
  if (chunk_capacity == 0 || chunk_capacity > stream::kMaxChunkCapacity) {
    std::cerr << "--chunk-capacity must be in [1, "
              << stream::kMaxChunkCapacity << "]\n";
    return 1;
  }

  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;

  try {
    // --- leg 1: generate the big trace straight to disk ------------------
    // The generator emits ~5 accesses per op at ~3 bytes each on disk, so
    // ops ~= bytes / 15 lands near the target; the exact size is reported.
    gen::ServerTrafficParams p;
    p.ops = static_cast<usize>(std::max<u64>(target_bytes / 15, 10000));
    const std::string trace_path = result_path("stream_replay.trs");
    u64 accesses = 0;
    {
      stream::StreamTraceWriter writer(trace_path,
                                       static_cast<u32>(chunk_capacity));
      accesses = gen::generate_server_traffic(p, writer);
      writer.finish();
    }
    const u64 disk_bytes = file_size(trace_path);
    std::cout << "trace: " << trace_path << " (" << accesses << " accesses, "
              << disk_bytes << " bytes, "
              << static_cast<double>(disk_bytes) /
                     static_cast<double>(accesses)
              << " B/access)\n";

    // --- leg 2: streamed replay, timed -----------------------------------
    stream::StreamTraceSource source(trace_path);
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult streamed = simulate(source, {}, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const double aps =
        seconds > 0 ? static_cast<double>(accesses) / seconds : 0.0;
    const u64 rss = peak_rss_bytes();
    std::cout << "replay: " << seconds << " s, " << aps
              << " accesses/sec, peak RSS " << rss << " bytes ("
              << static_cast<double>(rss) / (1u << 20) << " MiB)\n";

    // --- leg 3: in-RAM vs. streamed ledger identity (small size) ---------
    gen::ServerTrafficParams small = p;
    small.ops = 20000;
    Trace in_ram("stream_replay_identity");
    {
      TraceCollector collect(in_ram);
      (void)gen::generate_server_traffic(small, collect);
    }
    const std::string small_path = result_path("stream_replay_small.trs");
    {
      stream::StreamTraceWriter writer(small_path,
                                       static_cast<u32>(chunk_capacity));
      (void)gen::generate_server_traffic(small, writer);
      writer.finish();
    }
    VectorTraceSource ram_source(in_ram);
    stream::StreamTraceSource disk_source(small_path);
    const std::string ram_fp = ledger_fingerprint(simulate(ram_source, {}, cfg));
    const std::string disk_fp =
        ledger_fingerprint(simulate(disk_source, {}, cfg));
    const bool identical = ram_fp == disk_fp;
    std::cout << "ledger identity (in-RAM vs. streamed, "
              << in_ram.size() << " accesses): "
              << (identical ? "byte-identical" : "MISMATCH") << "\n";

    // --- emit BENCH_stream_replay.json ------------------------------------
    const std::string json_path = result_path("BENCH_stream_replay.json");
    {
      io::AtomicFileWriter out(json_path, "bench");
      JsonWriter j(out.stream());
      j.begin_object();
      // Schema v2 splits the run-invariant identity fields (diff cleanly
      // across runs and machines) from the run-varying "timing" object
      // (wall clock, throughput, RSS) -- docs/performance.md.
      j.kv("schema", "cnt-bench-perf-v2");
      j.kv("bench", "stream_replay");
      // Perf numbers measured with failpoints armed are invalid;
      // check_regression.py refuses documents where this is true.
      j.kv("failpoints_enabled", fp::enabled());
      // Likewise a run with the job watchdog armed: cancellation polls
      // are still one relaxed load, but the environment is non-standard.
      j.kv("job_timeout_armed", exec::job_timeout_from_env(0) != 0);
      j.kv("accesses", accesses);
      j.kv("file_bytes", disk_bytes);
      j.kv("chunk_capacity", chunk_capacity);
      j.kv("ledger_identical", identical);
      j.kv("cnt_saving", streamed.saving(kPolicyCnt));
      j.key("timing").begin_object();
      j.kv("seconds", seconds);
      j.kv("accesses_per_sec", aps);
      j.kv("peak_rss_bytes", rss);
      j.end_object();
      j.end_object();
      out.stream() << '\n';
      out.commit();
    }
    std::cout << "json: " << json_path << "\n";

    if (!keep_trace) {
      (void)std::remove(trace_path.c_str());
      (void)std::remove(small_path.c_str());
    }
    if (!identical) {
      std::cerr << "FAIL: streamed replay diverged from the in-RAM ledger\n";
      return 1;
    }
  } catch (const std::exception& e) {
    return bench::report_error(e);
  }
  return 0;
}
