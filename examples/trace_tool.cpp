// Trace tool: generate suite workloads as portable trace files, inspect
// them, and replay them through the simulator.
//
//   $ ./trace_tool gen <workload> <out.(txt|trs)> [scale]
//   $ ./trace_tool info <trace.(txt|trs)>
//   $ ./trace_tool replay <trace.(txt|trs)>
//
// The text format is human-readable/editable; the .trs chunked format
// (docs/trace_streaming.md) is compact AND streamable -- info and replay
// pull it chunk by chunk, so a .trs file larger than RAM still inspects
// and replays in O(chunk) memory. The extension picks the format
// (trace/trace_io.hpp).
// Replaying an external trace only exercises the cache + energy models
// (no initial memory image travels with a bare trace, so unwritten
// memory reads as zero).
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/table.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  trace_tool gen <workload> <out.(txt|trs)> [scale]\n"
            << "  trace_tool info <trace.(txt|trs)>\n"
            << "  trace_tool replay <trace.(txt|trs)>\n"
            << "workloads:";
  for (const auto& n : suite_names()) std::cerr << ' ' << n;
  std::cerr << " ifetch\n";
  return 1;
}

void print_info(const std::string& name, const TraceStats& s) {
  Table info({"metric", "value"});
  info.add_row({"name", name});
  info.add_row({"records", std::to_string(s.accesses)});
  info.add_row({"reads", std::to_string(s.reads)});
  info.add_row({"writes", std::to_string(s.writes)});
  info.add_row({"ifetches", std::to_string(s.ifetches)});
  info.add_row({"write fraction", Table::pct(s.write_fraction)});
  info.add_row({"unique 64B lines", std::to_string(s.unique_lines)});
  info.add_row({"footprint", Table::num(s.footprint_kib, 1) + " KiB"});
  info.add_row({"write bit-1 density", Table::pct(s.write_bit1_density)});
  std::cout << info.render();
}

void print_replay(const SimResult& res) {
  std::cout << "\nhit rate: " << Table::pct(res.cache_stats.hit_rate())
            << "\n\n"
            << breakdown_table(res) << "\nCNT-Cache saving: "
            << Table::pct(res.saving(kPolicyCnt)) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") {
      if (argc < 4) return usage();
      const double scale = argc > 4 ? std::atof(argv[4]) : 1.0;
      const Workload w = build_workload(argv[2], scale);
      save_trace(w.trace, argv[3]);
      std::cout << "wrote " << w.trace.size() << " records to " << argv[3]
                << "\n";
      print_info(w.trace.name(), w.trace.stats());
    } else if (cmd == "info") {
      const auto src = open_trace(argv[2]);
      print_info(src->name(), stats_of(*src));
    } else if (cmd == "replay") {
      const auto src = open_trace(argv[2]);
      const SimResult res = simulate(*src, {}, SimConfig{});
      print_info(src->name(), res.trace_stats);
      print_replay(res);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << cnt::format_error(e) << "\n";
    return 1;
  }
  return 0;
}
