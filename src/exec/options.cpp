#include "exec/options.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <thread>

namespace cnt::exec {

namespace {

/// Parse a positive integer; 0 on anything else.
usize parse_positive(std::string_view s) noexcept {
  if (s.empty()) return 0;
  usize v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return 0;
    v = v * 10 + static_cast<usize>(c - '0');
    if (v > 1'000'000) return 0;  // obviously bogus thread counts
  }
  return v;
}

}  // namespace

usize hardware_jobs() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<usize>(n);
}

usize jobs_from_env(usize fallback) noexcept {
  const char* env = std::getenv("CNT_JOBS");
  if (env == nullptr) return fallback;
  const usize v = parse_positive(env);
  return v > 0 ? v : fallback;
}

usize jobs_from_args(int argc, const char* const* argv,
                     usize fallback) noexcept {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 >= argc) continue;
      value = argv[i + 1];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      value = arg.substr(7);
    } else {
      continue;
    }
    const usize v = parse_positive(value);
    if (v > 0) return v;
  }
  return jobs_from_env(fallback);
}

usize resolve_jobs(usize n) noexcept {
  if (n > 0) return n;
  return jobs_from_env(hardware_jobs());
}

bool resume_from_env(bool fallback) noexcept {
  const char* env = std::getenv("CNT_RESUME");
  if (env == nullptr) return fallback;
  const std::string_view v = env;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return fallback;
}

bool resume_from_args(int argc, const char* const* argv,
                      bool fallback) noexcept {
  bool value = resume_from_env(fallback);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--resume") value = true;
    if (arg == "--no-resume") value = false;
  }
  return value;
}

u32 retries_from_env(u32 fallback) noexcept {
  const char* env = std::getenv("CNT_RETRIES");
  if (env == nullptr) return fallback;
  const std::string_view v = env;
  if (v == "0") return 0;
  const usize parsed = parse_positive(v);
  return parsed > 0 ? static_cast<u32>(parsed) : fallback;
}

u32 resolve_retries(u32 n) noexcept {
  if (n > 0) return n;
  return retries_from_env(0);
}

namespace {

/// Parse a positive u64 (no bogus-value ceiling -- seeds are arbitrary);
/// 0 on anything else, a value past 2^64 - 1 included.
u64 parse_positive_u64(std::string_view s) noexcept {
  if (s.empty()) return 0;
  constexpr u64 kMax = std::numeric_limits<u64>::max();
  u64 v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return 0;
    const auto digit = static_cast<u64>(c - '0');
    if (v > (kMax - digit) / 10) return 0;
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace

u64 job_timeout_from_env(u64 fallback) noexcept {
  const char* env = std::getenv("CNT_JOB_TIMEOUT_MS");
  if (env == nullptr) return fallback;
  const u64 v = parse_positive_u64(env);
  return v > 0 ? v : fallback;
}

u64 resolve_job_timeout(u64 n) noexcept {
  if (n > 0) return n;
  return job_timeout_from_env(0);
}

u64 u64_from_args(int argc, const char* const* argv, const char* flag,
                  u64 fallback) noexcept {
  const std::string_view spelled = flag;
  const std::string flag_eq = std::string(spelled) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == spelled) {
      if (i + 1 >= argc) continue;
      value = argv[i + 1];
    } else if (arg.rfind(flag_eq, 0) == 0) {
      value = arg.substr(flag_eq.size());
    } else {
      continue;
    }
    const u64 v = parse_positive_u64(value);
    if (v > 0) return v;
  }
  std::string env_name = "CNT_";
  for (char c : spelled.substr(spelled.find_first_not_of('-'))) {
    env_name += c == '-' ? '_' : static_cast<char>(std::toupper(c));
  }
  if (const char* env = std::getenv(env_name.c_str())) {
    const u64 v = parse_positive_u64(env);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace cnt::exec
