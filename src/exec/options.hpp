// Uniform parallelism / resumability knobs for every CLI in the repo.
//
// Precedence, strongest first: an explicit command-line flag (--jobs N,
// --resume / --no-resume, --job-timeout-ms N, parsed by common/cli.hpp),
// then the environment (CNT_JOBS, CNT_RESUME, CNT_RETRIES,
// CNT_JOB_TIMEOUT_MS), then the caller's fallback (0 = "unspecified",
// which the engine resolves to the hardware thread count for jobs and to
// "no retries" / "no watchdog" otherwise). The command line is strict;
// the environment readers here are forgiving: a malformed value falls
// through to the next source rather than aborting a batch run.
#pragma once

#include "common/types.hpp"

namespace cnt::exec {

/// std::thread::hardware_concurrency() clamped to >= 1.
[[nodiscard]] usize hardware_jobs() noexcept;

/// $CNT_JOBS as a positive integer, else `fallback`.
[[nodiscard]] usize jobs_from_env(usize fallback = 0) noexcept;

/// Resolve an "unspecified" job count: n itself if n > 0, else $CNT_JOBS,
/// else the hardware thread count.
[[nodiscard]] usize resolve_jobs(usize n) noexcept;

/// $CNT_RESUME as a boolean ("1"/"true"/"yes"/"on", case-sensitive),
/// else `fallback`. The --resume flag's default.
[[nodiscard]] bool resume_from_env(bool fallback = false) noexcept;

/// $CNT_RETRIES as a non-negative integer (extra attempts per failed
/// job), else `fallback`.
[[nodiscard]] u32 retries_from_env(u32 fallback = 0) noexcept;

/// Resolve an "unspecified" retry budget: n itself if n > 0, else
/// $CNT_RETRIES, else 0 (fail on the first error, the historical
/// behaviour).
[[nodiscard]] u32 resolve_retries(u32 n) noexcept;

/// $CNT_JOB_TIMEOUT_MS as a positive millisecond count, else `fallback`.
[[nodiscard]] u64 job_timeout_from_env(u64 fallback = 0) noexcept;

/// Resolve an "unspecified" per-attempt job timeout: n itself if n > 0,
/// else $CNT_JOB_TIMEOUT_MS, else 0 -- watchdog disabled, the historical
/// behaviour (docs/robustness.md).
[[nodiscard]] u64 resolve_job_timeout(u64 n) noexcept;

}  // namespace cnt::exec
