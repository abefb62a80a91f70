#include "trace/trace.hpp"

#include <bit>
#include <cassert>

namespace cnt {

void TraceStatsAccumulator::feed(const MemAccess& a) {
  ++s_.accesses;
  switch (a.op) {
    case MemOp::kRead: ++s_.reads; break;
    case MemOp::kWrite: ++s_.writes; break;
    case MemOp::kIFetch: ++s_.ifetches; break;
  }
  // Distinct 64 B lines, grouped by 4 KiB page: line (addr / 64) maps to
  // bit (addr / 64) % 64 of the mask for page (addr / 4096).
  const u64 page = a.addr >> 12;
  if (page != last_page_ || last_mask_ == nullptr) {
    last_mask_ = &page_line_masks_.find_or_insert(page, 0);
    last_page_ = page;
  }
  const u64 bit = u64{1} << ((a.addr >> 6) & 63);
  if ((*last_mask_ & bit) == 0) {
    *last_mask_ |= bit;
    ++unique_lines_;
  }
  if (a.op == MemOp::kWrite) {
    const u64 mask = a.size == 8 ? ~0ULL : ((1ULL << (a.size * 8)) - 1);
    write_bits_ += static_cast<usize>(a.size) * 8;
    write_ones_ += static_cast<usize>(std::popcount(a.value & mask));
  }
}

TraceStats TraceStatsAccumulator::finish() const {
  TraceStats s = s_;
  s.unique_lines = unique_lines_;
  const usize rw = s.reads + s.writes;
  s.write_fraction =
      rw == 0 ? 0.0
              : static_cast<double>(s.writes) / static_cast<double>(rw);
  s.footprint_kib = static_cast<double>(s.unique_lines) * 64.0 / 1024.0;
  s.write_bit1_density =
      write_bits_ == 0
          ? 0.0
          : static_cast<double>(write_ones_) / static_cast<double>(write_bits_);
  return s;
}

bool Trace::well_formed() const noexcept {
  for (const auto& a : accesses_) {
    if (!a.valid()) return false;
  }
  return true;
}

TraceStats Trace::stats() const {
  TraceStatsAccumulator acc;
  for (const auto& a : accesses_) acc.feed(a);
  return acc.finish();
}

Trace interleave(const Trace& code, const Trace& data, usize code_per_data) {
  Trace out("interleaved:" + code.name() + "+" + data.name());
  out.reserve(code.size() + data.size());
  usize ci = 0, di = 0;
  while (ci < code.size() || di < data.size()) {
    // Once the data runs out, the rest of the code follows unbroken.
    const bool data_left = di < data.size();
    for (usize k = 0; ci < code.size() && (k < code_per_data || !data_left);
         ++k) {
      out.push(code[ci++]);
    }
    if (data_left) out.push(data[di++]);
  }
  return out;
}

Workload interleave(const Workload& code, const Workload& data,
                    usize code_per_data) {
  Workload out;
  out.trace = interleave(code.trace, data.trace, code_per_data);
  out.name = out.trace.name();
  out.init = code.init;
  out.init.insert(out.init.end(), data.init.begin(), data.init.end());
  return out;
}

usize Workload::init_resident_bytes() const noexcept {
  usize total = 0;
  for (const auto& seg : init) total += seg.resident_bytes();
  return total;
}

}  // namespace cnt
