// cnt_tracegen: the one trace generator. Writes any workload to a trace
// file whose extension picks the format (trace/trace_io.hpp):
//
//   $ cnt_tracegen srv_steady big.trs --ops 50000000
//   $ cnt_tracegen zipf_kv zipf.txt --scale 0.05
//   $ cnt_tracegen --list
//
// Server-traffic scenarios (srv_*, server_traffic) stream straight from
// the generator to a .trs file (docs/trace_streaming.md), so multi-GB
// traces need only chunk-sized memory; suite workloads are built in RAM
// first (they are small by design). A .txt trace is built in RAM and
// written through save_trace. Replaying a bare trace file exercises the
// cache and energy models with unwritten memory reading as zero.
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;

namespace {

void list_workloads() {
  std::cout << "suite workloads:";
  for (const auto& n : suite_names()) std::cout << ' ' << n;
  std::cout << " ifetch btree_lookup rle_compress\n";
  std::cout << "server-traffic scenarios:\n";
  std::cout << "  server_traffic  (defaults)\n";
  for (const auto& s : gen::traffic_scenarios()) {
    std::cout << "  " << s.name << "  (" << s.description << ")\n";
  }
}

const gen::TrafficScenario* find_scenario(const std::string& name) {
  for (const auto& s : gen::traffic_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, out_path;
  double scale = 1.0;
  u64 seed_offset = 0;
  u64 ops_override = 0;
  u64 records_override = 0;
  u64 chunk_capacity = stream::kDefaultChunkCapacity;
  bool list = false;
  cli::Parser cli("cnt_tracegen",
                  "Generate a workload trace; --ops and --records apply to "
                  "server-traffic scenarios only.");
  cli.positional(&name, "workload", "see --list", {.required = true})
      .positional(&out_path, "out", "a .txt or .trs file", {.required = true})
      .flag(&scale, "--scale", "shrink or grow any workload")
      .flag(&ops_override, "--ops", "server-traffic operations")
      .flag(&records_override, "--records", "server-traffic key records")
      .flag(&seed_offset, "--seed-offset", "re-seed the generator",
            {.value = "K"})
      .flag(&chunk_capacity, "--chunk-capacity", "records per .trs chunk",
            {.min = 1, .max = stream::kMaxChunkCapacity})
      .flag(&list, "--list", "print the workloads and exit",
            {.standalone = true});
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  if (list) {
    list_workloads();
    return 0;
  }

  try {
    const gen::TrafficScenario* scenario = find_scenario(name);
    const bool server = scenario != nullptr || name == "server_traffic";
    gen::ServerTrafficParams p =
        scenario != nullptr ? scenario->params : gen::ServerTrafficParams{};
    if (scale != 1.0) {
      p.ops = static_cast<usize>(scaled_count(p.ops, scale));
    }
    if (ops_override != 0) p.ops = ops_override;
    if (records_override != 0) p.records = records_override;
    if (seed_offset != 0) p.seed += seed_offset * 0x9e3779b97f4a7c15ULL;

    if (server && trace_format(out_path) == TraceFormat::kStream) {
      // Stream straight to disk: the trace never exists in memory.
      stream::StreamTraceWriter writer(out_path,
                                       static_cast<u32>(chunk_capacity));
      const u64 accesses = gen::generate_server_traffic(p, writer);
      writer.finish();
      std::cout << "wrote " << accesses << " accesses in " << writer.chunks()
                << " chunks to " << out_path << "\n";
      return 0;
    }
    Workload w = server ? gen::server_traffic(p)
                        : build_workload(name, scale, seed_offset);
    if (server) w.trace.set_name(name);
    if (trace_format(out_path) == TraceFormat::kText) {
      save_trace(w.trace, out_path);
      std::cout << "wrote " << w.trace.size() << " accesses to " << out_path
                << "\n";
      return 0;
    }
    stream::StreamTraceWriter writer(out_path,
                                     static_cast<u32>(chunk_capacity));
    for (const auto& a : w.trace) writer.push(a);
    writer.finish();
    std::cout << "wrote " << writer.records() << " accesses in "
              << writer.chunks() << " chunks to " << out_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << format_error(e) << "\n";
    return 1;
  }
  return 0;
}
