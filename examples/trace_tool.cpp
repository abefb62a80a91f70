// Trace tool: inspect trace files and replay them through the simulator.
//
//   $ ./trace_tool info big.trs
//   $ ./trace_tool replay trace.txt
//
// The text format is human-readable/editable; the .trs chunked format
// (docs/trace_streaming.md) is compact AND streamable -- info and replay
// pull it chunk by chunk, so a .trs file larger than RAM still inspects
// and replays in O(chunk) memory. The extension picks the format
// (trace/trace_io.hpp). cnt_tracegen writes both.
// Replaying an external trace only exercises the cache + energy models
// (no initial memory image travels with a bare trace, so unwritten
// memory reads as zero).
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/trace_io.hpp"

using namespace cnt;

namespace {

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
  std::string cmd, path;
  cli::Parser cli("trace_tool", "Inspect or replay a .txt or .trs trace.");
  cli.positional(&cmd, "command", "info or replay",
                 {.choices = {"info", "replay"}, .required = true})
      .positional(&path, "trace", "a .txt or .trs file", {.required = true});
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  try {
    const auto src = open_trace(path);
    if (cmd == "info") {
      print_info(src->name(), stats_of(*src));
    } else {
      const SimResult res = simulate(*src, {}, SimConfig{});
      print_info(src->name(), res.trace_stats);
      print_replay(res);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << cnt::format_error(e) << "\n";
    return 1;
  }
  return 0;
}
