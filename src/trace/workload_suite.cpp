#include "trace/workload_suite.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/gen/workloads.hpp"

namespace cnt {

namespace {

/// `v` at `scale`, with the scale clamped to at least 0.01.
usize scaled(usize v, double scale, usize floor_v = 1) {
  const double n =
      std::max(static_cast<double>(v) * 0.01, scaled_count(v, scale));
  return std::max(floor_v, static_cast<usize>(std::llround(n)));
}

// Seed perturbation for statistical replication: offset 0 keeps the
// canonical instance; other offsets decorrelate via a splitmix-style mix.
u64 mix_seed(u64 base, u64 offset) {
  if (offset == 0) return base;
  u64 z = base + offset * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<SuiteEntry>& default_suite() {
  static const std::vector<SuiteEntry> kSuite = {
      {"stream_copy",
       [](double s, u64 seed) {
         gen::StreamCopyParams p;
         p.passes = scaled(p.passes, s, 1);
         p.seed = mix_seed(p.seed, seed);
         return gen::stream_copy(p);
       }},
      {"stream_scale",
       [](double s, u64 seed) {
         gen::StreamScaleParams p;
         p.passes = scaled(p.passes, s, 1);
         p.seed = mix_seed(p.seed, seed);
         return gen::stream_scale(p);
       }},
      {"matmul",
       [](double s, u64 seed) {
         gen::MatmulParams p;
         if (s < 1.0) {
           p.n = 32;
           p.block = 8;
         }
         p.seed = mix_seed(p.seed, seed);
         return gen::matmul(p);
       }},
      {"stencil2d",
       [](double s, u64 seed) {
         gen::StencilParams p;
         p.sweeps = scaled(p.sweeps, s, 1);
         p.seed = mix_seed(p.seed, seed);
         return gen::stencil2d(p);
       }},
      {"pointer_chase",
       [](double s, u64 seed) {
         gen::PointerChaseParams p;
         p.hops = scaled(p.hops, s, 500);
         p.seed = mix_seed(p.seed, seed);
         return gen::pointer_chase(p);
       }},
      {"zipf_kv",
       [](double s, u64 seed) {
         gen::ZipfKvParams p;
         p.ops = scaled(p.ops, s, 500);
         p.seed = mix_seed(p.seed, seed);
         return gen::zipf_kv(p);
       }},
      {"hash_join",
       [](double s, u64 seed) {
         gen::HashJoinParams p;
         p.build_tuples = scaled(p.build_tuples, s, 200);
         p.probe_tuples = scaled(p.probe_tuples, s, 800);
         p.seed = mix_seed(p.seed, seed);
         return gen::hash_join(p);
       }},
      {"text_tokenize",
       [](double s, u64 seed) {
         gen::TextTokenizeParams p;
         p.text_bytes = scaled(p.text_bytes, s, 4096);
         p.seed = mix_seed(p.seed, seed);
         return gen::text_tokenize(p);
       }},
      {"image_blur",
       [](double s, u64 seed) {
         gen::ImageBlurParams p;
         if (s < 1.0) {
           p.width = 64;
           p.height = 64;
         }
         p.seed = mix_seed(p.seed, seed);
         return gen::image_blur(p);
       }},
      {"spmv",
       [](double s, u64 seed) {
         gen::SpmvParams p;
         p.repeats = scaled(p.repeats, s, 1);
         p.seed = mix_seed(p.seed, seed);
         return gen::spmv(p);
       }},
  };
  return kSuite;
}

double scaled_count(usize count, double scale) {
  const double n = std::max(static_cast<double>(count) * scale, 0.0);
  // 2^63: both llround() and the usize conversion are defined below it.
  if (std::isfinite(scale) && n < 0x1p63) return n;
  std::ostringstream what;
  what << "scale '" << scale << "' ";
  if (std::isfinite(scale)) {
    what << "sizes " << count << " items to " << n << ", past 2^63";
  } else {
    what << "is not finite";
  }
  throw ValueError(Errc::kRange, what.str())
      .hint("use a finite scale; 1 is the default size");
}

Workload build_workload(const std::string& name, double scale,
                        u64 seed_offset) {
  // A count of 0 checks only that the scale is finite: matmul and
  // image_blur size nothing by it.
  (void)scaled_count(0, scale);
  for (const auto& e : default_suite()) {
    if (e.name == name) return e.build(scale, seed_offset);
  }
  if (name == "ifetch") {
    gen::IFetchParams p;
    p.fetches = scaled(p.fetches, scale, 1000);
    p.seed = mix_seed(p.seed, seed_offset);
    return gen::ifetch_stream(p);
  }
  if (name == "btree_lookup") {
    gen::BtreeParams p;
    p.lookups = scaled(p.lookups, scale, 200);
    p.seed = mix_seed(p.seed, seed_offset);
    return gen::btree_lookup(p);
  }
  if (name == "rle_compress") {
    gen::RleParams p;
    p.input_bytes = scaled(p.input_bytes, scale, 4096);
    p.seed = mix_seed(p.seed, seed_offset);
    return gen::rle_compress(p);
  }
  if (name == "server_traffic") {
    gen::ServerTrafficParams p;
    p.ops = scaled(p.ops, scale, 2000);
    p.seed = mix_seed(p.seed, seed_offset);
    return gen::server_traffic(p);
  }
  // Server-traffic scenario presets (srv_*): extra workloads, not part of
  // the ten-entry default suite.
  for (const auto& sc : gen::traffic_scenarios()) {
    if (sc.name != name) continue;
    gen::ServerTrafficParams p = sc.params;
    p.ops = scaled(p.ops, scale, 2000);
    p.seed = mix_seed(p.seed, seed_offset);
    Workload w = gen::server_traffic(p);
    w.name = sc.name;
    w.description = sc.description;
    w.trace.set_name(sc.name);
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  names.reserve(default_suite().size());
  for (const auto& e : default_suite()) names.push_back(e.name);
  return names;
}

}  // namespace cnt
