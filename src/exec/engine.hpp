// ExperimentEngine: the facade benches and examples program against.
//
// Takes a batch of Jobs (usually from SweepSpec::expand()), executes them
// on a ThreadPool, and returns outcomes in submission order regardless of
// completion order. Execution is input-major (exec/shared_inputs.hpp):
// the pending jobs are grouped by input key (workload, scale,
// seed_offset), the groups run in first-appearance order and each
// group's jobs in submission order. The first job of a group to start
// builds the Workload once; the group's other jobs share it read-only,
// and it is freed when the group's last job reaches its final outcome.
// Determinism contract: an input is a pure function of its key -- all
// randomness flows through the per-generator Rng seeds -- and simulate()
// only reads it, with no shared mutable simulation state, so a parallel
// run is bit-identical to --jobs 1 and each outcome to a stand-alone
// run_job(job). A job that throws is captured as a failed JobOutcome;
// the rest of the batch runs to completion.
//
// Crash safety (docs/resumable_sweeps.md): with a jsonl_path the engine
// writes a journal -- sealed header + checksummed rows streamed into
// `<path>.partial`, renamed onto `<path>` on success. With resume=true a
// partial journal from a killed run is loaded, its torn tail truncated,
// and every journaled ok row is replayed verbatim instead of
// re-simulated, so the final file is byte-identical to an uninterrupted
// run. SIGINT/SIGTERM (when handle_signals) or a cancel_check hook stop
// the sweep gracefully: in-flight jobs drain, the journal flushes, and
// run() throws SweepInterrupted.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "exec/result_sink.hpp"
#include "exec/shared_inputs.hpp"
#include "exec/sweep.hpp"

namespace cnt::exec {

struct EngineOptions {
  /// Worker threads; 0 resolves via $CNT_JOBS then hardware concurrency.
  /// A run starts at most one per pending job.
  usize jobs = 0;
  /// JSONL telemetry file; empty disables the sink.
  std::string jsonl_path;
  /// Include per-job wall_ms in JSONL rows (disable for byte-exact
  /// parallel-vs-serial file comparisons).
  bool jsonl_timing = true;
  /// Live progress/throughput line on stderr.
  bool progress = false;
  /// Load `<jsonl_path>.partial` (or the final file) and skip jobs whose
  /// ok rows are already journaled. No-op without a jsonl_path.
  bool resume = false;
  /// Extra attempts per failed job; 0 resolves via $CNT_RETRIES (default:
  /// fail on the first error, the historical behaviour).
  u32 max_retries = 0;
  /// Base delay before the first retry; doubles per attempt, capped at
  /// 5 s. Only consulted when a retry actually happens. The wait is
  /// interruptible: SIGINT/SIGTERM or cancellation preempt it.
  u32 retry_backoff_ms = 100;
  /// Per-attempt wall-clock budget in milliseconds; 0 resolves via
  /// $CNT_JOB_TIMEOUT_MS then "no watchdog". When armed, an attempt
  /// still running at the deadline is cancelled (cancel::Reason::kTimeout)
  /// and the job is quarantined (docs/robustness.md).
  u64 job_timeout_ms = 0;
  /// Install SIGINT/SIGTERM handlers for graceful interruption. A second
  /// signal restores the default disposition (immediate death).
  bool handle_signals = false;
  /// Test hook polled between jobs alongside the signal flag; returning
  /// true cancels the sweep at a deterministic point.
  std::function<bool()> cancel_check;
};

/// Thrown by ExperimentEngine::run() when the sweep is cancelled by a
/// signal or cancel_check. The journal (if any) has been flushed; rerun
/// with resume=true to pick up where this run stopped.
class SweepInterrupted : public std::runtime_error {
 public:
  SweepInterrupted(usize completed, usize total, std::string journal_path);

  [[nodiscard]] usize completed() const noexcept { return completed_; }
  [[nodiscard]] usize total() const noexcept { return total_; }
  /// The `<path>.partial` file holding the flushed rows ("" if no sink).
  [[nodiscard]] const std::string& journal_path() const noexcept {
    return journal_path_;
  }

 private:
  usize completed_;
  usize total_;
  std::string journal_path_;
};

/// Execute one job in the calling thread: build the workload, simulate,
/// capture any exception. Never throws. The stand-alone entry point.
[[nodiscard]] JobOutcome run_job(const Job& job) noexcept;

/// run_job over the sweep's shared inputs: the workload comes from
/// `inputs` (built by this call when no other job of its group has built
/// it), and wall_ms covers the build only when this call built it. The
/// outcome is bit-identical to run_job(job). Never throws.
[[nodiscard]] JobOutcome run_shared_job(const Job& job,
                                        SharedInputs& inputs) noexcept;

/// A pluggable job executor (tests inject failure-then-success fakes).
using JobRunner = std::function<JobOutcome(const Job&)>;

class Watchdog;

/// Run `job` up to 1 + max_retries times, waiting backoff_ms * 2^attempt
/// (capped at 5 s) between attempts -- an interruptible wait: a pending
/// SIGINT/SIGTERM or cancellation drains it within one slice instead of
/// sleeping out the full delay. Returns the first ok outcome -- with
/// `attempts` recording how many tries it took -- or the last failure once
/// the budget is spent, with `attempt_errcs` recording every attempt's
/// errc name. With a `watchdog`, each attempt runs under its own
/// cancellation token and deadline; a timed-out attempt is not retried.
/// A failed outcome is marked quarantined ("timeout" or "retries") unless
/// the retry loop was abandoned by an interrupt request.
[[nodiscard]] JobOutcome run_job_with_retry(const Job& job, u32 max_retries,
                                            u32 backoff_ms,
                                            const JobRunner& runner = run_job,
                                            Watchdog* watchdog = nullptr);

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions opts = {});

  /// Run every job; returns outcomes indexed by submission order (job ids
  /// are reassigned densely from 0 in vector order). Starts at most one
  /// thread per pending job; with 1 worker (or 1 pending job) the batch
  /// runs inline in the calling thread -- the serial reference path.
  /// Throws SweepInterrupted on cancellation and std::runtime_error when
  /// resume=true meets a journal for a different sweep.
  [[nodiscard]] std::vector<JobOutcome> run(std::vector<Job> jobs) const;

  [[nodiscard]] std::vector<JobOutcome> run(const SweepSpec& spec) const {
    return run(spec.expand());
  }

  /// The resolved worker count this engine will use.
  [[nodiscard]] usize worker_count() const noexcept { return workers_; }

  /// The resolved retry budget (max_retries, then $CNT_RETRIES, then 0).
  [[nodiscard]] u32 retry_budget() const noexcept { return retries_; }

  /// The resolved per-attempt timeout in ms (job_timeout_ms, then
  /// $CNT_JOB_TIMEOUT_MS, then 0 = no watchdog).
  [[nodiscard]] u64 job_timeout() const noexcept { return timeout_ms_; }

 private:
  EngineOptions opts_;
  usize workers_;
  u32 retries_;
  u64 timeout_ms_;
};

/// Outcomes of one axis point, in submission (suite) order.
struct TagGroup {
  std::string tag;
  std::vector<const JobOutcome*> outcomes;
};

/// Group outcomes by Job::tag, preserving first-appearance order (which
/// equals axis declaration order for SweepSpec batches).
[[nodiscard]] std::vector<TagGroup> group_by_tag(
    const std::vector<JobOutcome>& outcomes);

/// Extract the SimResults of a group for the report helpers
/// (mean_saving, savings_table). Throws std::runtime_error naming the
/// workload and error if any job in the group failed.
[[nodiscard]] std::vector<SimResult> results_of(
    const std::vector<const JobOutcome*>& group);

/// Process exit code for a sweep that completed with quarantined jobs:
/// distinct from 0 (clean), 1 (hard failure) and 130 (interrupted) so
/// batch drivers can tell "usable but incomplete" apart
/// (docs/robustness.md exit-code table).
inline constexpr int kExitQuarantine = 3;

/// Jobs whose outcome is quarantined (timed out / exhausted retries).
[[nodiscard]] usize quarantined_count(
    const std::vector<JobOutcome>& outcomes) noexcept;

/// 0 when every job succeeded, kExitQuarantine when the sweep completed
/// but quarantined at least one job, 1 for any other failed outcome.
[[nodiscard]] int sweep_exit_code(
    const std::vector<JobOutcome>& outcomes) noexcept;

}  // namespace cnt::exec
