#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace cnt {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) {
                   // cnt-lint: narrow-ok -- tolower(uchar) fits in char
                   return static_cast<char>(std::tolower(c));
                 });
  return s;
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* kind, std::string hint) {
  throw ValueError(Errc::kValue, "key '" + key + "' has invalid " + kind +
                                     " value '" + value + "'")
      .hint(std::move(hint));
}

}  // namespace

Config Config::parse(std::istream& is, std::string source,
                     const ParseLimits& limits) {
  Config cfg;
  std::string line;
  std::string section;
  u64 line_no = 0;
  usize key_count = 0;
  for (;;) {
    const LineStatus status = bounded_getline(is, line, limits.max_line_bytes);
    if (status == LineStatus::kEof) break;
    ++line_no;
    if (status == LineStatus::kTooLong) {
      throw Error(Errc::kLimit,
                  "line exceeds the " +
                      std::to_string(limits.max_line_bytes) +
                      "-byte strict-parse cap")
          .at(source, line_no)
          .hint("INI lines this long are never legitimate config; the file "
                "is likely corrupt or not an INI file");
    }
    // Strip comments ('#' or ';').
    const auto hash = line.find_first_of("#;");
    if (hash != std::string::npos) line.resize(hash);
    const std::string t = trim(line);
    if (t.empty()) continue;

    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3) {
        throw Error(Errc::kSyntax, "bad section header '" + t + "'")
            .at(source, line_no)
            .hint("write '[section]' on its own line");
      }
      section = trim(t.substr(1, t.size() - 2));
      continue;
    }

    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw Error(Errc::kSyntax, "missing '=' in key-value line")
          .at(source, line_no)
          .hint("write 'key = value'");
    }
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) {
      throw Error(Errc::kSyntax, "empty key before '='")
          .at(source, line_no)
          .hint("write 'key = value'");
    }
    const std::string full = section.empty() ? key : section + "." + key;
    if (cfg.values_.contains(full)) {
      throw Error(Errc::kDuplicateKey,
                  "key '" + full + "' is defined more than once")
          .at(source, line_no)
          .hint("remove the duplicate; earlier definitions would otherwise "
                "be silently overridden");
    }
    if (++key_count > limits.max_records) {
      throw Error(Errc::kLimit,
                  "more than " + std::to_string(limits.max_records) +
                      " keys (strict-parse cap)")
          .at(source, line_no)
          .hint("no simulator config needs this many keys; the file is "
                "likely not an INI file");
    }
    cfg.set(full, value);
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error(Errc::kIo, "cannot open config file")
        .at(path)
        .hint("check the path and permissions");
  }
  return parse(in, path);
}

Config Config::parse_string(const std::string& text) {
  std::istringstream ss(text);
  return parse(ss, "<string>");
}

bool Config::has(const std::string& key) const {
  return values_.contains(key);
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

i64 Config::get_int(const std::string& key, i64 fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    usize pos = 0;
    const i64 out = std::stoll(*v, &pos);
    if (pos != v->size()) {
      bad_value(key, *v, "integer", "use a plain base-10 integer");
    }
    return out;
  } catch (const ValueError&) {
    throw;
  } catch (const std::invalid_argument&) {
    bad_value(key, *v, "integer", "use a plain base-10 integer");
  } catch (const std::out_of_range&) {
    bad_value(key, *v, "integer", "the value overflows a 64-bit integer");
  }
}

u64 Config::get_uint(const std::string& key, u64 fallback) const {
  const i64 v = get_int(key, static_cast<i64>(fallback));
  if (v < 0) {
    bad_value(key, *get(key), "unsigned", "the value must be >= 0");
  }
  return static_cast<u64>(v);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    usize pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos != v->size()) {
      bad_value(key, *v, "number", "use a decimal number like 2.5");
    }
    return out;
  } catch (const ValueError&) {
    throw;
  } catch (const std::invalid_argument&) {
    bad_value(key, *v, "number", "use a decimal number like 2.5");
  } catch (const std::out_of_range&) {
    bad_value(key, *v, "number", "the value overflows a double");
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const std::string lv = lower(*v);
  if (lv == "true" || lv == "1" || lv == "yes" || lv == "on") return true;
  if (lv == "false" || lv == "0" || lv == "no" || lv == "off") return false;
  bad_value(key, *v, "boolean",
            "use one of true/false/1/0/yes/no/on/off");
}

u64 Config::get_size(const std::string& key, u64 fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  std::string body = *v;
  u64 mult = 1;
  switch (std::tolower(static_cast<unsigned char>(body.back()))) {
    case 'k': mult = 1024; body.pop_back(); break;
    case 'm': mult = 1024 * 1024; body.pop_back(); break;
    case 'g': mult = 1024ULL * 1024 * 1024; body.pop_back(); break;
    default: break;
  }
  try {
    usize pos = 0;
    const u64 base = std::stoull(trim(body), &pos);
    if (pos != trim(body).size()) {
      bad_value(key, *v, "size", "use an integer with optional k/m/g suffix");
    }
    if (mult != 1 && base > ~u64{0} / mult) {
      bad_value(key, *v, "size", "the value overflows 64 bits");
    }
    return base * mult;
  } catch (const ValueError&) {
    throw;
  } catch (const std::invalid_argument&) {
    bad_value(key, *v, "size", "use an integer with optional k/m/g suffix");
  } catch (const std::out_of_range&) {
    bad_value(key, *v, "size", "the value overflows 64 bits");
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

}  // namespace cnt
