// Deterministic failpoint registry for crash-consistency testing
// (docs/crash_consistency.md).
//
// Every durable writer names its I/O steps as *sites* ("journal.write",
// "trs.sync", ...) and asks the registry before performing them. With no
// failpoints armed the question costs one relaxed atomic load -- the
// benchmark (perfbench/, which refuses to measure with CNT_FAILPOINTS set)
// holds the instrumentation to that budget. Arming happens through
// `CNT_FAILPOINTS` (or configure() in tests):
//
//   CNT_FAILPOINTS="journal.write=error:ENOSPC@3;trs.sync=crash"
//
// grammar: site=action[:arg][@N] entries separated by ';' or ','.
// Actions:
//   error:ENOSPC / error:EIO -- the caller throws the mapped Errc::kIo
//                               error exactly as the real syscall would;
//   short-write              -- the caller persists a prefix of the bytes,
//                               then fails (a torn record on disk);
//   delay[:ms]               -- sleep (default 10 ms) and continue;
//   hang                     -- park until the thread's cancellation
//                               token fires (common/cancel.hpp), then
//                               surface Action::kCancelled -- the
//                               watchdog's torture case (docs/robustness.md);
//   crash                    -- SIGKILL the process at the site, the
//                               moral equivalent of a power cut.
// `@N` fires on the Nth evaluation of the site (1-based, default 1);
// error/short-write/delay/hang are one-shot so recovery paths run clean.
// Sites come from a fixed compile-time catalog; arming an unknown site
// is a configuration error with a did-you-mean hint.
//
// The registry is deterministic: which evaluation fires depends only on
// the spec and the (deterministic) order the program reaches the site.
// tools/cnt-torture layers seeded trigger-index selection on top.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace cnt::fp {

/// What the caller must do at an armed site. Crash and delay are handled
/// inside evaluate(); only the error-shaped actions reach the caller.
enum class Action : u8 {
  kNone,         ///< proceed normally
  kErrorEnospc,  ///< fail as if write() returned ENOSPC
  kErrorEio,     ///< fail as if the device reported EIO
  kShortWrite,   ///< persist a prefix of the payload, then fail
  kCancelled,    ///< a `hang` park ended: fail with the token's
                 ///< kCancelled/kTimeout error (cancel::cancelled_error)
};

/// One armed entry plus its live hit counter (for tests and cnt-torture).
struct SiteState {
  std::string site;
  std::string action;  ///< rendered as written in the spec
  u64 trigger_hit = 0; ///< 1-based evaluation index that fires
  u64 hits = 0;        ///< evaluations of this site so far
};

/// True when any failpoint is armed or hit-count probing is on. One
/// relaxed atomic load on the hot path.
[[nodiscard]] bool enabled() noexcept;

/// Count a hit at `site` and return the action the caller must take.
/// Sleeps for delay actions; never returns for crash actions.
[[nodiscard]] Action evaluate(std::string_view site) noexcept;

/// Hot-path helper: kNone without a registry lookup when disabled.
[[nodiscard]] inline Action check(std::string_view site) noexcept {
  return enabled() ? evaluate(site) : Action::kNone;
}

/// Arm failpoints from a spec string (grammar above). Replaces any
/// previous configuration. Throws cnt::ValueError on an unknown site,
/// unknown action, or malformed entry.
void configure(std::string_view spec);

/// Arm from $CNT_FAILPOINTS and enable hit-count probing when
/// $CNT_FAILPOINT_REPORT names a file (written by write_report() or at
/// process exit). Called lazily on the first enabled() check; call it
/// directly after changing the environment (forked children, tests).
void configure_from_env();

/// Disarm everything and reset hit counters. enabled() becomes false
/// (probe mode included); the environment is not re-read.
void clear() noexcept;

/// Snapshot of the armed entries, in spec order.
[[nodiscard]] std::vector<SiteState> armed();

/// Evaluations of `site` since the last configure()/clear(). Counted for
/// every site while enabled() -- armed or not.
[[nodiscard]] u64 hit_count(std::string_view site);

/// Write "site count" lines (catalog order, hit sites only) to the
/// $CNT_FAILPOINT_REPORT path. No-op without a report path. cnt-torture
/// uses the report of a clean run to choose trigger points.
void write_report();

/// The fixed site catalog, sorted. Every evaluate() call site in the
/// tree names one of these (docs/crash_consistency.md documents each).
[[nodiscard]] const std::vector<std::string>& site_catalog();

/// The fixed action catalog, sorted ("crash", "delay", ... "hang",
/// "short-write"). Pinned by tests so new actions land in the grammar,
/// the docs, and the chaos wall together.
[[nodiscard]] const std::vector<std::string>& action_catalog();

}  // namespace cnt::fp
