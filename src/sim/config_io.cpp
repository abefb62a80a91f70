#include "sim/config_io.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace cnt {

namespace {

/// One INI spelling of an enum value.
struct Choice {
  template <class E>
  constexpr Choice(const char* n, E v) : name(n), value(static_cast<u64>(v)) {}
  /// The spelling the enum's to_string() already gives.
  template <class E>
  Choice(E v) : Choice(to_string(v), v) {}

  const char* name;
  u64 value;
};

const Choice kWritePolicy[] = {{"wb", WritePolicy::kWriteBack},
                               {"wt", WritePolicy::kWriteThrough},
                               WritePolicy::kWriteBack,
                               WritePolicy::kWriteThrough};
const Choice kAlloc[] = {{"wa", AllocPolicy::kWriteAllocate},
                         {"nwa", AllocPolicy::kNoWriteAllocate},
                         AllocPolicy::kWriteAllocate,
                         AllocPolicy::kNoWriteAllocate};
const Choice kReplacement[] = {{"lru", ReplKind::kLru},
                               {"plru", ReplKind::kTreePlru},
                               {"tree-plru", ReplKind::kTreePlru},
                               {"fifo", ReplKind::kFifo},
                               {"random", ReplKind::kRandom}};
const Choice kFill[] = {
    FillDirectionPolicy::kAsIs, FillDirectionPolicy::kMinWriteEnergy,
    FillDirectionPolicy::kReadOptimized, FillDirectionPolicy::kByMissType};
const Choice kGranularity[] = {WriteGranularity::kWord,
                               WriteGranularity::kLine};
const Choice kHistory[] = {HistoryScope::kPerLine, HistoryScope::kPerSet};
const Choice kProtection[] = {ProtectionScheme::kNone,
                              ProtectionScheme::kParity,
                              ProtectionScheme::kSecded};

/// One row of the field table.
struct Field {
  const char* key = nullptr;  ///< INI key; nullptr: hashed, not parsed
  bool size = false;          ///< takes k/m/g suffixes
  bool faulted = false;       ///< hashed only while the fault campaign is on
  std::span<const Choice> choices = {};  ///< an enum's INI spellings
};

/// The field table: calls `f(row, member)` for every SimConfig member, in
/// the fingerprint's byte order. `S` is SimConfig or const SimConfig.
/// tests/test_config_io.cpp binds every member of the config structs, so a
/// member added without a row here fails a test.
template <class S, class F>
void for_each_field(S& s, F&& f) {
  auto& c = s.cache;
  f({}, c.name);
  f({.key = "cache.size", .size = true}, c.size_bytes);
  f({.key = "cache.ways"}, c.ways);
  f({.key = "cache.line", .size = true}, c.line_bytes);
  f({.key = "cache.addr_bits"}, c.addr_bits);
  f({.key = "cache.write_policy", .choices = kWritePolicy}, c.write_policy);
  f({.key = "cache.alloc", .choices = kAlloc}, c.alloc_policy);
  f({.key = "cache.replacement", .choices = kReplacement}, c.replacement);
  f({.key = "cache.idle_per_miss"}, c.idle.idle_per_miss);
  f({.key = "cache.hit_idle_period"}, c.idle.hit_idle_period);
  f({}, c.replacement_seed);
  f({.key = "cache.way_prediction"}, c.way_prediction);
  f({.key = "cache.sector_writeback"}, c.sector_writeback);

  f({}, s.tech);
  f({}, s.cmos_tech);

  auto& n = s.cnt;
  f({.key = "cnt.window"}, n.window);
  f({.key = "cnt.partitions"}, n.partitions);
  f({.key = "cnt.fifo_depth"}, n.fifo_depth);
  f({.key = "cnt.delta_t"}, n.delta_t);
  f({.key = "cnt.fill", .choices = kFill}, n.fill_policy);
  f({.key = "cnt.granularity", .choices = kGranularity}, n.write_granularity);
  f({.key = "cnt.history", .choices = kHistory}, n.history_scope);
  f({.key = "cnt.account_metadata"}, n.account_metadata);
  f({.key = "cnt.flip_aware"}, n.flip_aware_writes);
  f({.key = "cnt.zero_line"}, n.zero_line_opt);

  f({.key = "policies.cmos"}, s.with_cmos);
  f({.key = "policies.static"}, s.with_static);
  f({.key = "policies.ideal"}, s.with_ideal);

  auto& x = s.fault;
  f({.key = "fault.stuck_per_mbit", .faulted = true}, x.stuck_per_mbit);
  f({.key = "fault.stuck_at1", .faulted = true}, x.stuck_at1_fraction);
  f({.key = "fault.transient_per_read", .faulted = true},
    x.transient_per_read);
  f({.key = "fault.protection", .faulted = true, .choices = kProtection},
    x.protection);
  f({.key = "fault.protect_directions", .faulted = true},
    x.protect_directions);
  f({.key = "fault.seed", .faulted = true}, x.seed);
}

u64 pick_choice(const Field& f, const std::string& value) {
  std::string names;
  for (const Choice& c : f.choices) {
    if (value == c.name) return c.value;
    names += (names.empty() ? "" : "/") + std::string(c.name);
  }
  throw ValueError(Errc::kValue, std::string("key '") + f.key +
                                     "' has unknown value '" + value + "'")
      .hint("use one of " + names);
}

/// Read row `f` of `ini` into `m`; an absent key keeps the default.
template <class T>
void read_field(const Config& ini, const Field& f, T& m) {
  if constexpr (std::is_same_v<T, bool>) {
    m = ini.get_bool(f.key, m);
  } else if constexpr (std::is_same_v<T, double>) {
    m = ini.get_double(f.key, m);
  } else if constexpr (std::is_enum_v<T>) {
    if (const auto v = ini.get(f.key)) m = static_cast<T>(pick_choice(f, *v));
  } else if constexpr (std::is_unsigned_v<T>) {
    const u64 v = f.size ? ini.get_size(f.key, m) : ini.get_uint(f.key, m);
    if (v > std::numeric_limits<T>::max()) {
      throw ValueError(Errc::kRange, std::string("key '") + f.key +
                                         "' has out-of-range value '" +
                                         *ini.get(f.key) + "'")
          .hint("use at most " +
                std::to_string(std::numeric_limits<T>::max()));
    }
    m = static_cast<T>(v);
  }
}

void feed_tech(Fnv1a64& h, const TechParams& t) noexcept {
  h.update(t.name);
  const PeripheralParams& p = t.periph;
  for (const Energy e :
       {t.cell.rd0, t.cell.rd1, t.cell.wr0, t.cell.wr1, p.decoder_per_addr_bit,
        p.wordline_per_cell, p.tag_compare_per_bit, p.output_per_bit,
        p.encoder_per_bit, p.predictor_update, p.predictor_eval_per_bit,
        p.fifo_per_byte}) {
    h.update(e.in_joules());
  }
  h.update(p.leakage_per_cell_w);
  h.update(t.clock_ghz);
}

template <class T>
void hash_field(Fnv1a64& h, const T& m) noexcept {
  if constexpr (std::is_same_v<T, TechParams>) {
    feed_tech(h, m);
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    h.update(static_cast<u64>(m));
  } else {
    h.update(m);  // std::string, double
  }
}

}  // namespace

SimConfig sim_config_from(const Config& cfg) {
  SimConfig sim;
  for_each_field(sim, [&](const Field& f, auto& m) {
    if (f.key != nullptr) read_field(cfg, f, m);
  });
  // Fail fast on invalid geometry, CNT and fault knobs.
  sim.cache.validate();
  sim.cnt.validate(sim.cache.line_bytes);
  sim.fault.validate();
  return sim;
}

std::vector<std::string> known_sim_config_keys() {
  std::vector<std::string> keys;
  const SimConfig defaults;
  for_each_field(defaults, [&](const Field& f, const auto&) {
    if (f.key != nullptr) keys.emplace_back(f.key);
  });
  return keys;
}

std::string unknown_key_message(const std::string& key,
                                const std::vector<std::string>& known) {
  std::string out = "unknown config key '" + key + "'";
  const std::string near = nearest_match(key, known);
  if (!near.empty()) out += " (did you mean '" + near + "'?)";
  return out;
}

void warn_unknown_keys(const Config& ini, const std::vector<std::string>& extra,
                       std::ostream& err) {
  std::vector<std::string> known = known_sim_config_keys();
  known.insert(known.end(), extra.begin(), extra.end());
  for (const std::string& key : ini.keys()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      err << "warning: " << unknown_key_message(key, known) << "\n";
    }
  }
}

u64 config_fingerprint(const SimConfig& cfg) noexcept {
  Fnv1a64 h;
  h.update(std::string_view("cnt-config-v1"));
  // Fault fields follow a "fault" marker and only while the campaign is
  // on, so every fault-free fingerprint is the one minted before the
  // fault subsystem existed.
  const bool faults = cfg.fault.enabled();
  bool marked = false;
  for_each_field(cfg, [&](const Field& f, const auto& m) {
    if (f.faulted) {
      if (!faults) return;
      if (!std::exchange(marked, true)) h.update(std::string_view("fault"));
    }
    hash_field(h, m);
  });
  return h.digest();
}

}  // namespace cnt
