// cnt_tracegen: generate workload traces as chunked streamed files
// (CNTTRS, docs/trace_streaming.md) without materializing them.
//
//   $ cnt_tracegen <workload> <out.trs> [options]
//   $ cnt_tracegen --list
//
// Server-traffic scenarios (srv_*, server_traffic) stream straight from
// the generator to disk, so multi-GB traces need only chunk-sized memory;
// suite workloads are built in RAM first (they are small by design) and
// then written out. Replaying a bare trace file exercises the cache and
// energy models with unwritten memory reading as zero.
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;

namespace {

int usage() {
  std::cerr
      << "usage:\n"
      << "  cnt_tracegen <workload> <out.trs> [--scale S] [--ops N]\n"
      << "               [--records N] [--seed-offset K] "
         "[--chunk-capacity N]\n"
      << "  cnt_tracegen --list\n"
      << "\n"
      << "--ops/--records apply to server-traffic scenarios only;\n"
      << "--scale shrinks or grows any workload.\n";
  return 1;
}

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

/// Strict unsigned flag value: decimal digits only -- no sign, no
/// trailing junk, no overflow. False on anything else.
bool parse_count(const char* text, u64& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

/// --scale must consume its whole argument ("0.5x" is refused).
bool parse_scale(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

const gen::TrafficScenario* find_scenario(const std::string& name) {
  for (const auto& s : gen::traffic_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    list_workloads();
    return 0;
  }
  if (argc < 3) return usage();
  const std::string name = argv[1];
  const std::string out_path = argv[2];

  double scale = 1.0;
  u64 seed_offset = 0;
  u64 ops_override = 0;
  u64 records_override = 0;
  u64 chunk_capacity = stream::kDefaultChunkCapacity;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (arg == "--scale" && val != nullptr) {
      ok = parse_scale(val, scale);
    } else if (arg == "--ops" && val != nullptr) {
      ok = parse_count(val, ops_override);
    } else if (arg == "--records" && val != nullptr) {
      ok = parse_count(val, records_override);
    } else if (arg == "--seed-offset" && val != nullptr) {
      ok = parse_count(val, seed_offset);
    } else if (arg == "--chunk-capacity" && val != nullptr) {
      ok = parse_count(val, chunk_capacity);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
    if (!ok) {
      std::cerr << "bad value for " << arg << ": '" << val << "' (expected "
                << (arg == "--scale" ? "a number" : "an unsigned integer")
                << ")\n";
      return usage();
    }
    ++i;
  }
  if (chunk_capacity == 0 || chunk_capacity > stream::kMaxChunkCapacity) {
    std::cerr << "chunk capacity must be in [1, "
              << stream::kMaxChunkCapacity << "]\n";
    return 1;
  }

  try {
    const gen::TrafficScenario* scenario = find_scenario(name);
    if (scenario != nullptr || name == "server_traffic") {
      // Stream straight to disk: the trace never exists in memory.
      gen::ServerTrafficParams p =
          scenario != nullptr ? scenario->params : gen::ServerTrafficParams{};
      if (scale != 1.0) {
        p.ops = static_cast<usize>(scaled_count(p.ops, scale));
      }
      if (ops_override != 0) p.ops = ops_override;
      if (records_override != 0) p.records = records_override;
      if (seed_offset != 0) p.seed += seed_offset * 0x9e3779b97f4a7c15ULL;
      stream::StreamTraceWriter writer(out_path,
                                       static_cast<u32>(chunk_capacity));
      const u64 accesses = gen::generate_server_traffic(p, writer);
      writer.finish();
      std::cout << "wrote " << accesses << " accesses in "
                << writer.chunks() << " chunks to " << out_path << "\n";
    } else {
      const Workload w = build_workload(name, scale, seed_offset);
      stream::StreamTraceWriter writer(out_path,
                                       static_cast<u32>(chunk_capacity));
      for (const auto& a : w.trace) writer.push(a);
      writer.finish();
      std::cout << "wrote " << writer.records() << " accesses in "
                << writer.chunks() << " chunks to " << out_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << format_error(e) << "\n";
    return 1;
  }
  return 0;
}
