// Kernel capture demo: write your own memory kernels as plain C++ and
// measure them in the CNT-Cache simulator -- no trace files, no generator
// code. Three mini-kernels with very different encoding behaviour:
//
//   histogram   -- hot sparse counters, read-modify-write (predictor food)
//   binsearch   -- pointer-free log-probing over sorted keys, read-only
//   fir_filter  -- f32 streaming convolution, dense float data
//
//   $ ./kernel_capture
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/capture.hpp"

using namespace cnt;

namespace {

Workload histogram_kernel() {
  TraceCapture tc("histogram");
  Rng rng(42);
  constexpr usize kBuckets = 512;
  constexpr usize kSamples = 40000;

  auto counts = tc.array<u64>(0x1000'0000, kBuckets);
  ZipfSampler zipf(kBuckets, 0.8);
  for (usize i = 0; i < kSamples; ++i) {
    counts[zipf.sample(rng)] += 1;  // load + store per sample
  }
  return tc.take();
}

Workload binsearch_kernel() {
  TraceCapture tc("binsearch");
  Rng rng(43);
  constexpr usize kKeys = 8192;
  constexpr usize kLookups = 20000;

  std::vector<u64> sorted(kKeys);
  u64 v = 0;
  for (auto& k : sorted) {
    v += 1 + rng.uniform(50);
    k = v;
  }
  auto keys = tc.array<u64>(0x2000'0000, sorted);

  for (usize q = 0; q < kLookups; ++q) {
    const u64 needle = rng.uniform(v);
    usize lo = 0, hi = kKeys;
    while (lo < hi) {
      const usize mid = (lo + hi) / 2;
      if (static_cast<u64>(keys[mid]) < needle) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
  }
  return tc.take();
}

Workload fir_kernel() {
  TraceCapture tc("fir_filter");
  Rng rng(44);
  constexpr usize kTaps = 16;
  constexpr usize kSamples = 16384;

  std::vector<float> sig(kSamples), tap(kTaps);
  for (auto& s : sig) s = static_cast<float>(rng.gaussian());
  for (auto& t : tap) t = static_cast<float>(rng.gaussian() * 0.2);
  auto x = tc.array<float>(0x3000'0000, sig);
  auto h = tc.array<float>(0x3800'0000, tap);
  auto y = tc.array<float>(0x4000'0000, kSamples);

  for (usize n = kTaps; n < kSamples; ++n) {
    float acc = 0;
    for (usize k = 0; k < kTaps; ++k) {
      acc += static_cast<float>(x[n - k]) * static_cast<float>(h[k]);
    }
    y[n] = acc;
  }
  return tc.take();
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Parser cli("kernel_capture",
                        "Measure three C++ kernels in the simulator.");
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  std::cout << "Kernel capture: three hand-written C++ kernels through the "
               "CNT-Cache simulator\n\n";

  SimConfig cfg;
  Table t({"kernel", "accesses", "wr%", "hit%", "baseline", "CNT-Cache",
           "saving"});
  for (Workload (*make)() : {histogram_kernel, binsearch_kernel, fir_kernel}) {
    const Workload w = make();
    const auto ts = w.trace.stats();
    const SimResult res = simulate(w, cfg);
    t.add_row({w.name, std::to_string(ts.accesses),
               Table::pct(ts.write_fraction),
               Table::pct(res.cache_stats.hit_rate()),
               res.energy(kPolicyBaseline).to_string(),
               res.energy(kPolicyCnt).to_string(),
               Table::pct(res.saving(kPolicyCnt))});
  }
  std::cout << t.render()
            << "\nhistogram: sparse counters, adaptive encoding shines.\n"
               "binsearch: read-only integer keys, read-optimized fills "
               "carry it.\nfir_filter: dense float data, little to encode "
               "-- the honest case.\n";
  return 0;
}
