#include "sim/config_io.hpp"

#include <stdexcept>

namespace cnt {

namespace {

[[noreturn]] void bad_enum(const std::string& key, const std::string& value) {
  throw std::invalid_argument("config: key '" + key +
                              "' has unknown value '" + value + "'");
}

ReplKind parse_repl(const std::string& key, const std::string& v) {
  if (v == "lru") return ReplKind::kLru;
  if (v == "plru" || v == "tree-plru") return ReplKind::kTreePlru;
  if (v == "fifo") return ReplKind::kFifo;
  if (v == "random") return ReplKind::kRandom;
  bad_enum(key, v);
}

WritePolicy parse_write_policy(const std::string& key, const std::string& v) {
  if (v == "wb" || v == "write-back") return WritePolicy::kWriteBack;
  if (v == "wt" || v == "write-through") return WritePolicy::kWriteThrough;
  bad_enum(key, v);
}

AllocPolicy parse_alloc(const std::string& key, const std::string& v) {
  if (v == "wa" || v == "write-allocate") return AllocPolicy::kWriteAllocate;
  if (v == "nwa" || v == "no-write-allocate") {
    return AllocPolicy::kNoWriteAllocate;
  }
  bad_enum(key, v);
}

FillDirectionPolicy parse_fill(const std::string& key, const std::string& v) {
  if (v == "as-is") return FillDirectionPolicy::kAsIs;
  if (v == "min-write") return FillDirectionPolicy::kMinWriteEnergy;
  if (v == "read-optimized") return FillDirectionPolicy::kReadOptimized;
  if (v == "by-miss-type") return FillDirectionPolicy::kByMissType;
  bad_enum(key, v);
}

WriteGranularity parse_granularity(const std::string& key,
                                   const std::string& v) {
  if (v == "word") return WriteGranularity::kWord;
  if (v == "line") return WriteGranularity::kLine;
  bad_enum(key, v);
}

HistoryScope parse_history(const std::string& key, const std::string& v) {
  if (v == "per-line") return HistoryScope::kPerLine;
  if (v == "per-set") return HistoryScope::kPerSet;
  bad_enum(key, v);
}

ProtectionScheme parse_protection(const std::string& key,
                                  const std::string& v) {
  if (v == "none") return ProtectionScheme::kNone;
  if (v == "parity") return ProtectionScheme::kParity;
  if (v == "secded") return ProtectionScheme::kSecded;
  bad_enum(key, v);
}

}  // namespace

SimConfig sim_config_from(const Config& cfg) {
  SimConfig sim;

  sim.cache.size_bytes = cfg.get_size("cache.size", sim.cache.size_bytes);
  sim.cache.ways = cfg.get_uint("cache.ways", sim.cache.ways);
  sim.cache.line_bytes = cfg.get_size("cache.line", sim.cache.line_bytes);
  sim.cache.addr_bits =
      static_cast<u32>(cfg.get_uint("cache.addr_bits", sim.cache.addr_bits));
  if (const auto v = cfg.get("cache.replacement")) {
    sim.cache.replacement = parse_repl("cache.replacement", *v);
  }
  if (const auto v = cfg.get("cache.write_policy")) {
    sim.cache.write_policy = parse_write_policy("cache.write_policy", *v);
  }
  if (const auto v = cfg.get("cache.alloc")) {
    sim.cache.alloc_policy = parse_alloc("cache.alloc", *v);
  }
  sim.cache.way_prediction =
      cfg.get_bool("cache.way_prediction", sim.cache.way_prediction);
  sim.cache.sector_writeback =
      cfg.get_bool("cache.sector_writeback", sim.cache.sector_writeback);
  sim.cache.idle.idle_per_miss = static_cast<u32>(
      cfg.get_uint("cache.idle_per_miss", sim.cache.idle.idle_per_miss));
  sim.cache.idle.hit_idle_period = static_cast<u32>(
      cfg.get_uint("cache.hit_idle_period", sim.cache.idle.hit_idle_period));

  sim.cnt.window = cfg.get_uint("cnt.window", sim.cnt.window);
  sim.cnt.partitions = cfg.get_uint("cnt.partitions", sim.cnt.partitions);
  sim.cnt.fifo_depth = cfg.get_uint("cnt.fifo_depth", sim.cnt.fifo_depth);
  sim.cnt.delta_t = cfg.get_double("cnt.delta_t", sim.cnt.delta_t);
  if (const auto v = cfg.get("cnt.fill")) {
    sim.cnt.fill_policy = parse_fill("cnt.fill", *v);
  }
  if (const auto v = cfg.get("cnt.granularity")) {
    sim.cnt.write_granularity = parse_granularity("cnt.granularity", *v);
  }
  if (const auto v = cfg.get("cnt.history")) {
    sim.cnt.history_scope = parse_history("cnt.history", *v);
  }
  sim.cnt.account_metadata =
      cfg.get_bool("cnt.account_metadata", sim.cnt.account_metadata);
  sim.cnt.flip_aware_writes =
      cfg.get_bool("cnt.flip_aware", sim.cnt.flip_aware_writes);
  sim.cnt.zero_line_opt =
      cfg.get_bool("cnt.zero_line", sim.cnt.zero_line_opt);

  sim.fault.stuck_per_mbit =
      cfg.get_double("fault.stuck_per_mbit", sim.fault.stuck_per_mbit);
  sim.fault.stuck_at1_fraction =
      cfg.get_double("fault.stuck_at1", sim.fault.stuck_at1_fraction);
  sim.fault.transient_per_read =
      cfg.get_double("fault.transient_per_read", sim.fault.transient_per_read);
  if (const auto v = cfg.get("fault.protection")) {
    sim.fault.protection = parse_protection("fault.protection", *v);
  }
  sim.fault.protect_directions =
      cfg.get_bool("fault.protect_directions", sim.fault.protect_directions);
  sim.fault.seed = cfg.get_uint("fault.seed", sim.fault.seed);

  sim.with_cmos = cfg.get_bool("policies.cmos", sim.with_cmos);
  sim.with_static = cfg.get_bool("policies.static", sim.with_static);
  sim.with_ideal = cfg.get_bool("policies.ideal", sim.with_ideal);

  // Fail fast on invalid geometry, CNT and fault knobs.
  sim.cache.validate();
  sim.cnt.validate(sim.cache.line_bytes);
  sim.fault.validate();
  return sim;
}

std::vector<std::string> known_sim_config_keys() {
  return {
      "cache.size",        "cache.ways",        "cache.line",
      "cache.addr_bits",   "cache.replacement", "cache.write_policy",
      "cache.alloc",       "cache.idle_per_miss", "cache.hit_idle_period",
      "cache.way_prediction", "cache.sector_writeback",
      "cnt.window",        "cnt.partitions",    "cnt.fifo_depth",
      "cnt.delta_t",       "cnt.fill",          "cnt.granularity",
      "cnt.history",       "cnt.account_metadata", "cnt.flip_aware",
      "cnt.zero_line",
      "fault.stuck_per_mbit", "fault.stuck_at1", "fault.transient_per_read",
      "fault.protection",  "fault.protect_directions", "fault.seed",
      "policies.cmos",     "policies.static",   "policies.ideal",
      "workload.name",     "workload.scale",
  };
}

}  // namespace cnt
