// Build a SimConfig from an INI-style Config (see common/config.hpp), so
// experiments are scriptable without recompiling.
//
// The field table in config_io.cpp (`for_each_field`) lists every SimConfig
// member once, with its INI key and the values it accepts. It is the one
// schema: the INI reader, the known-key list and the resume fingerprint all
// read it. A key is `<section>.<name>`, so `[cnt] window = 15` sets
// `cnt.window`. Sizes take k/m/g suffixes, unsigned integers must fit
// their member, bools take true/false/1/0/yes/no/on/off, and an enum takes
// one of the choices its table row lists. A bad value throws ValueError
// naming the key; the cache, CNT and fault validators then check the
// parsed config as a whole.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/runner.hpp"

namespace cnt {

/// Apply every recognized key of `cfg` on top of the defaults.
[[nodiscard]] SimConfig sim_config_from(const Config& cfg);

/// The INI keys sim_config_from reads, in table order.
[[nodiscard]] std::vector<std::string> known_sim_config_keys();

/// "unknown config key 'K'", plus " (did you mean 'S'?)" when one of
/// `known` is close to `key`.
[[nodiscard]] std::string unknown_key_message(
    const std::string& key, const std::vector<std::string>& known);

/// Write one "warning: unknown config key ..." line to `err` for every key
/// of `ini` that sim_config_from does not read and `extra` does not name.
void warn_unknown_keys(const Config& ini, const std::vector<std::string>& extra,
                       std::ostream& err);

/// Stable fingerprint of a complete SimConfig: every table field in table
/// order, including the unparsed cache name, replacement seed and both
/// technology parameter sets. Fault fields count only while the fault
/// campaign is on. Platform- and run-independent; a journaled sweep row
/// resumes only when its config's fingerprint is unchanged.
[[nodiscard]] u64 config_fingerprint(const SimConfig& cfg) noexcept;

}  // namespace cnt
