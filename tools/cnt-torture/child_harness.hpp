// Fork-based child harness of the cnt-torture wall: run a payload in a
// forked child with failpoints armed from a spec string, bound it by a
// wall-clock deadline, and read back the artifacts and failpoint hit
// counts it leaves behind. Unix-only (fork/waitpid); run_child() is
// declared only where it exists.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace cnt::harness {

/// Per-child wall-clock bound: far above any healthy run (each payload
/// takes well under a second), so a trip always means parked-forever work.
inline constexpr u64 kChildDeadlineMs = 60'000;

struct ChildStatus {
  bool killed_backstop = false;  ///< deadline blown; SIGKILLed by the parent
  int term_signal = 0;           ///< terminating signal when nonzero
  int exit_code = -1;            ///< wait status exit code otherwise
};

#if defined(__unix__)

/// Fork and run `payload` with CNT_FAILPOINTS=`spec` (empty = disarmed)
/// and CNT_FAILPOINT_REPORT=`report` (empty = no probing); the ambient
/// engine knobs (CNT_RETRIES, CNT_JOB_TIMEOUT_MS, CNT_JOBS) are cleared so
/// only the payload's explicit options decide its behaviour. The child
/// never returns: the payload's value is its exit status, an exception
/// exits 1 after writing its rendering to `err_path`. The parent polls
/// with a deadline: a child still alive after `deadline_ms` is SIGKILLed
/// and reported as killed_backstop.
[[nodiscard]] ChildStatus run_child(const std::function<int()>& payload,
                                    const std::string& spec,
                                    const std::string& report,
                                    const std::string& err_path,
                                    u64 deadline_ms = kChildDeadlineMs);

#endif  // defined(__unix__)

/// Whole file as bytes ("" when unreadable).
[[nodiscard]] std::string slurp(const std::string& path);

/// Failpoint hit counts from a $CNT_FAILPOINT_REPORT file, by site.
[[nodiscard]] std::map<std::string, u64> read_report(const std::string& path);

/// Seeded 1-based trigger index into `count` evaluations of a site.
[[nodiscard]] u64 pick_index(std::string_view label, u64 seed, u64 count);

}  // namespace cnt::harness
