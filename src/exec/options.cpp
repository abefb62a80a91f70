#include "exec/options.hpp"

#include <cstdlib>
#include <string_view>
#include <thread>

#include "common/cli.hpp"

namespace cnt::exec {

namespace {

/// $name as a whole number in [lo, hi]; nullopt when unset or anything
/// else.
std::optional<u64> env_count(const char* name, u64 lo, u64 hi) noexcept {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const auto v = cli::parse_u64(env);
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

constexpr u64 kMaxJobs = 1'000'000;  // obviously bogus thread counts

}  // namespace

usize hardware_jobs() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<usize>(n);
}

usize jobs_from_env(usize fallback) noexcept {
  return env_count("CNT_JOBS", 1, kMaxJobs).value_or(fallback);
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

u32 retries_from_env(u32 fallback) noexcept {
  return static_cast<u32>(
      env_count("CNT_RETRIES", 0, kMaxJobs).value_or(fallback));
}

u32 resolve_retries(u32 n) noexcept {
  if (n > 0) return n;
  return retries_from_env(0);
}

u64 job_timeout_from_env(u64 fallback) noexcept {
  return env_count("CNT_JOB_TIMEOUT_MS", 1, std::numeric_limits<u64>::max())
      .value_or(fallback);
}

u64 resolve_job_timeout(u64 n) noexcept {
  if (n > 0) return n;
  return job_timeout_from_env(0);
}

}  // namespace cnt::exec
