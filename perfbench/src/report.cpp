#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "energy/energy_ledger.hpp"
#include "sim/stats_dump.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_percentile(usize n) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

double peak_rss_mib() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, v] : entries_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

i64 SpanLog::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

i64 SpanLog::begin(std::string name, i64 parent, i64 job) {
  if (!enabled_) return -1;
  const i64 now = since_origin(Clock::now());
  spans_.push_back(Span{std::move(name), now, now, parent, job});
  return static_cast<i64>(spans_.size()) - 1;
}

void SpanLog::end(i64 id) {
  if (id < 0) return;
  spans_[static_cast<usize>(id)].end_ns = since_origin(Clock::now());
}

i64 SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, i64 parent, i64 job) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), since_origin(start),
                        since_origin(end), parent, job});
  return static_cast<i64>(spans_.size()) - 1;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  cnt::JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("schema", "perfbench-spans-v1");
  w.key("spans").begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("start_ns", s.start_ns);
    w.kv("end_ns", s.end_ns);
    w.kv("parent", s.parent);
    w.kv("job", s.job);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

std::string result_text(cnt::SimResult r) {
  r.workload = "replay";
  std::ostringstream os;
  cnt::dump_json(r, os);
  cnt::exec::JobOutcome o;
  o.job.workload = r.workload;
  o.ok = true;
  o.result = std::move(r);
  os << '\n';
  cnt::exec::write_jsonl_row(o, os, /*include_timing=*/false);
  os << '\n';
  return os.str();
}

namespace {

void hex_double(std::ostringstream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf;
}

}  // namespace

std::string hierarchy_text(const cnt::HierarchyRunResult& r) {
  std::ostringstream os;
  for (const cnt::LevelResult& l : r.levels) {
    os << l.level << (l.adaptive ? " cnt" : " base");
    for (usize c = 0; c < static_cast<usize>(cnt::EnergyCategory::kCount);
         ++c) {
      const auto cat = static_cast<cnt::EnergyCategory>(c);
      os << ' ';
      hex_double(os, l.ledger.get(cat).in_joules());
      os << '/' << l.ledger.count(cat);
    }
    const cnt::CacheStats& s = l.stats;
    os << " | " << s.accesses << ' ' << s.read_hits << ' ' << s.read_misses
       << ' ' << s.write_hits << ' ' << s.write_misses << ' '
       << s.write_arounds << ' ' << s.fills << ' ' << s.evictions << ' '
       << s.writebacks << '\n';
  }
  os << "dram ";
  hex_double(os, r.dram_energy.in_joules());
  os << '\n';
  return os.str();
}

std::string outcomes_text(const std::vector<cnt::exec::JobOutcome>& outcomes) {
  std::ostringstream os;
  for (const auto& o : outcomes) {
    cnt::exec::write_jsonl_row(o, os, /*include_timing=*/false);
    os << '\n';
  }
  return os.str();
}

std::string digest_of(std::string_view text) {
  return cnt::hex_u64(cnt::fnv1a64(text));
}

}  // namespace perfbench
