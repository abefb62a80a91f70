#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "exec/interrupt.hpp"
#include "exec/journal.hpp"
#include "exec/options.hpp"
#include "exec/progress.hpp"
#include "exec/shared_inputs.hpp"
#include "exec/thread_pool.hpp"
#include "exec/watchdog.hpp"
#include "trace/workload_suite.hpp"

namespace cnt::exec {

SweepInterrupted::SweepInterrupted(usize completed, usize total,
                                   std::string journal_path)
    : std::runtime_error("sweep interrupted after " +
                         std::to_string(completed) + "/" +
                         std::to_string(total) + " jobs"),
      completed_(completed),
      total_(total),
      journal_path_(std::move(journal_path)) {}

namespace {

/// One attempt at `job`: the engine.job failpoint, then simulate over the
/// workload `input(built)` yields, capturing any exception. wall_ms is
/// charged to the attempt that built the input; an attempt sharing
/// another job's input starts its clock once it holds the input.
template <typename InputFn>
JobOutcome execute(const Job& job, InputFn&& input) noexcept {
  JobOutcome out;
  out.job = job;
  // Torture-harness hook (docs/crash_consistency.md): an armed
  // engine.job failpoint injects a transient job failure (exercising the
  // retry path) or kills the process mid-sweep.
  switch (fp::check("engine.job")) {
    case fp::Action::kErrorEnospc:
    case fp::Action::kErrorEio:
    case fp::Action::kShortWrite:
      out.error = "failpoint: injected transient job failure (engine.job)";
      out.errc = "io";
      return out;
    case fp::Action::kCancelled: {
      // A `hang` failpoint parked here until this attempt's token fired
      // (watchdog timeout or explicit cancel) -- the chaos wall's
      // torture case for the quarantine path.
      cancel::Token* token = cancel::current();
      const cancel::Reason reason =
          token != nullptr ? token->reason() : cancel::Reason::kCancel;
      const Error e = cancel::cancelled_error(reason, "engine.job");
      out.error = e.what();
      out.errc = errc_name(e.code());
      return out;
    }
    case fp::Action::kNone:
      break;
  }
  auto t0 = std::chrono::steady_clock::now();
  try {
    bool built = false;
    const std::shared_ptr<const Workload> w = input(built);
    if (!built) t0 = std::chrono::steady_clock::now();
    out.result = simulate(*w, job.config);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
    const auto* taxonomy = dynamic_cast<const ErrorBase*>(&e);
    out.errc = taxonomy != nullptr
                   ? std::string(errc_name(taxonomy->info().code))
                   : "internal";
  } catch (...) {
    out.error = "unknown exception";
    out.errc = "internal";
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

}  // namespace

JobOutcome run_job(const Job& job) noexcept {
  return execute(job, [&job](bool& built) {
    built = true;
    return std::make_shared<const Workload>(
        build_workload(job.workload, job.scale, job.seed_offset));
  });
}

JobOutcome run_shared_job(const Job& job, SharedInputs& inputs) noexcept {
  return execute(job,
                 [&](bool& built) { return inputs.acquire(job, built); });
}

namespace {

/// One watched attempt: a fresh cancellation token installed
/// thread-locally (the replay loops, StreamTraceSource refill and the
/// failpoint `hang` park all observe it), armed on the watchdog when one
/// is running. Marks the outcome timed_out when the watchdog fired.
JobOutcome run_attempt(const Job& job, const JobRunner& runner,
                       Watchdog* watchdog) {
  const auto token = std::make_shared<cancel::Token>();
  const cancel::ScopedToken scope(*token);
  std::optional<Watchdog::Guard> guard;
  if (watchdog != nullptr) guard.emplace(watchdog->watch(token));
  JobOutcome out = runner(job);
  out.timed_out = !out.ok && token->reason() == cancel::Reason::kTimeout;
  return out;
}

}  // namespace

JobOutcome run_job_with_retry(const Job& job, u32 max_retries, u32 backoff_ms,
                              const JobRunner& runner, Watchdog* watchdog) {
  std::vector<std::string> attempt_errcs;
  bool interrupted = false;
  JobOutcome out = run_attempt(job, runner, watchdog);
  out.attempts = 1;
  for (u32 retry = 1; retry <= max_retries && !out.ok; ++retry) {
    // A timed-out attempt already burned a full --job-timeout-ms budget
    // and a hung job rarely unhangs: quarantine now, do not retry.
    if (out.timed_out) break;
    // A pending interrupt outranks the retry budget: return the failure
    // now so the engine can drain and flush.
    if (interrupt_requested()) {
      interrupted = true;
      break;
    }
    if (backoff_ms > 0) {
      const u64 delay = std::min<u64>(
          static_cast<u64>(backoff_ms) << (retry - 1), u64{5000});
      // Interruptible backoff: a SIGINT/SIGTERM mid-wait drains within
      // one wait slice instead of sleeping out the full exponential
      // delay (up to 5 s) with the signal pending.
      const cancel::Token pause;
      if (pause.wait_ms(delay, [] { return interrupt_requested(); })) {
        interrupted = true;
        break;
      }
    }
    // This attempt's failure is final only in aggregate: record it and
    // spend a retry. The last attempt's errc is appended below.
    attempt_errcs.push_back(out.errc.empty() ? "internal" : out.errc);
    const u32 attempts_so_far = out.attempts;
    out = run_attempt(job, runner, watchdog);
    out.attempts = attempts_so_far + 1;
  }
  if (!out.ok) {
    attempt_errcs.push_back(out.errc.empty() ? "internal" : out.errc);
    out.attempt_errcs = std::move(attempt_errcs);
    if (out.timed_out) {
      out.quarantined = true;
      out.quarantine_reason = "timeout";
    } else if (!interrupted) {
      // The retry budget is spent and nothing external cut the loop
      // short: the failure is final, quarantine it so the sweep
      // completes deterministically without this job.
      out.quarantined = true;
      out.quarantine_reason = "retries";
    }
  }
  return out;
}

ExperimentEngine::ExperimentEngine(EngineOptions opts)
    : opts_(std::move(opts)),
      workers_(resolve_jobs(opts_.jobs)),
      retries_(resolve_retries(opts_.max_retries)),
      timeout_ms_(resolve_job_timeout(opts_.job_timeout_ms)) {}

std::vector<JobOutcome> ExperimentEngine::run(std::vector<Job> jobs) const {
  // The engine owns the id space: dense submission-order ids anchor both
  // the returned vector's order and the sink's reorder guarantee.
  for (usize i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<u64>(i);
  const u64 fp = sweep_fingerprint(jobs);

  // Load the prior journal (if resuming) BEFORE the sink truncates
  // <path>.partial.
  std::unordered_map<u64, const JournalRow*> replayable;
  JournalData journal;
  if (opts_.resume && !opts_.jsonl_path.empty()) {
    journal = load_journal(opts_.jsonl_path);
    if (journal.header_ok && journal.fingerprint != fp) {
      throw Error(Errc::kSchema,
                  "--resume: journal " + journal.source_path +
                      " records sweep " + hex_u64(journal.fingerprint) +
                      " but this sweep is " + hex_u64(fp))
          .at(journal.source_path)
          .hint("delete the stale journal or rerun without --resume");
    }
    // A torn tail is the normal crash signature and resume truncates it;
    // a row that fails its CRC *with intact rows after it* means the file
    // was damaged in place, and replaying around the hole would silently
    // drop results -- refuse instead.
    if (auto corrupt = journal_corruption_error(journal)) {
      throw std::move(*corrupt).context("--resume");
    }
    if (journal.header_ok) {
      for (const JournalRow& row : journal.rows) {
        // Only completed rows of a still-matching job are replayable;
        // failed rows get a fresh attempt.
        if (!row.ok || row.job_id >= jobs.size()) continue;
        if (row.key != job_key(jobs[row.job_id])) continue;
        replayable[row.job_id] = &row;
      }
    }
  }

  if (opts_.handle_signals) install_signal_handlers();
  const auto cancelled = [this]() -> bool {
    if (opts_.handle_signals && interrupt_requested()) return true;
    return opts_.cancel_check && opts_.cancel_check();
  };

  JsonlSink sink = opts_.jsonl_path.empty()
                       ? JsonlSink{}
                       : JsonlSink(opts_.jsonl_path, opts_.jsonl_timing);
  sink.write_header(fp, jobs.size());
  ProgressMeter meter(jobs.size(), opts_.progress);
  std::vector<JobOutcome> outcomes(jobs.size());
  std::vector<char> replayed(jobs.size(), 0);

  // Replay journaled rows first (byte-for-byte, per-row flushed) so a
  // second kill re-loses as little as possible; resume is idempotent
  // either way because row content is deterministic.
  for (usize i = 0; i < jobs.size(); ++i) {
    const auto it = replayable.find(i);
    if (it == replayable.end()) continue;
    try {
      outcomes[i] = outcome_from_row(*it->second, jobs[i]);
    } catch (const std::exception&) {
      continue;  // malformed row: fall through to re-simulation
    }
    sink.push_replayed(i, it->second->text);
    meter.job_resumed();
    replayed[i] = 1;
  }

  bool interrupted = false;
  // A journal write failure (disk full, device error) must not lose the
  // sweep: stop dispatching, drain, seal the partial, and rethrow the
  // I/O error with resume guidance (docs/crash_consistency.md).
  std::optional<Error> journal_failure;
  // One watchdog thread for the whole sweep when a per-attempt timeout
  // is armed; it works for the serial path too, being its own thread.
  std::optional<Watchdog> watchdog;
  if (timeout_ms_ > 0) watchdog.emplace(timeout_ms_);
  Watchdog* dog = watchdog.has_value() ? &*watchdog : nullptr;
  // Input-major dispatch: jobs that replay the same input run back to
  // back and share one build. Rows still reach the journal in submission
  // order through the sink's reorder buffer.
  std::vector<usize> pending;
  for (usize i = 0; i < jobs.size(); ++i) {
    if (replayed[i] == 0) pending.push_back(i);
  }
  const std::vector<InputGroup> groups = plan_inputs(jobs, pending);
  std::vector<usize> order;
  for (const InputGroup& g : groups) {
    order.insert(order.end(), g.begin(), g.end());
  }
  SharedInputs inputs(jobs.size(), groups);
  const JobRunner runner = [&inputs](const Job& job) {
    return run_shared_job(job, inputs);
  };
  // A worker beyond the pending job count would never get a job.
  const usize threads = std::min(workers_, pending.size());
  if (threads <= 1) {
    // Serial reference path: same code per job, no threads at all.
    for (const usize i : order) {
      if (cancelled()) {
        interrupted = true;
        break;
      }
      outcomes[i] = run_job_with_retry(jobs[i], retries_,
                                       opts_.retry_backoff_ms, runner, dog);
      inputs.release(jobs[i]);
      try {
        sink.push(outcomes[i]);
      } catch (Error& e) {
        journal_failure = std::move(e);
        break;
      }
      if (outcomes[i].quarantined) {
        meter.job_quarantined();
      } else {
        meter.job_done();
      }
    }
  } else {
    std::mutex done_mu;  // guards outcomes slot writes + sink + flags
    bool stop = false;   // cnt-lint: guarded-by(done_mu)
    ThreadPool pool(threads);
    for (const usize i : order) {
      pool.submit([&, i] {
        const Job& job = jobs[i];
        {
          // Poll under the lock so cancel_check needs no thread safety
          // of its own and every worker agrees on the stop decision.
          std::lock_guard lock(done_mu);
          if (stop || cancelled()) {
            stop = true;
            inputs.release(job);
            return;
          }
        }
        JobOutcome out = run_job_with_retry(
            job, retries_, opts_.retry_backoff_ms, runner, dog);
        inputs.release(job);
        // In-flight jobs drain even after a stop request: their rows
        // still reach the journal before the interrupt propagates.
        std::lock_guard lock(done_mu);
        if (!journal_failure.has_value()) {
          try {
            sink.push(out);
            if (out.quarantined) {
              meter.job_quarantined();
            } else {
              meter.job_done();
            }
          } catch (Error& e) {
            journal_failure = std::move(e);
            stop = true;
          }
        }
        outcomes[i] = std::move(out);
      });
    }
    pool.wait();
    pool.shutdown();
    // run_job is noexcept, so pool-level errors mean an engine bug.
    if (pool.error_count() != 0) {
      throw std::logic_error("ExperimentEngine: worker task threw");
    }
    // cnt-lint: guard-ok workers joined by shutdown(); no writer remains
    interrupted = stop && !journal_failure.has_value();
  }

  if (journal_failure.has_value()) {
    sink.close_interrupted();  // salvage buffered rows, keep the partial
    meter.finish();
    Error e = std::move(*journal_failure);
    std::string how = e.info().hint;
    if (!opts_.jsonl_path.empty()) {
      if (!how.empty()) how += "; ";
      how += "then rerun with --resume -- every journaled row is sealed in " +
             opts_.jsonl_path + ".partial";
    }
    throw std::move(e)
        .context("writing sweep journal (" + std::to_string(meter.done()) +
                 "/" + std::to_string(jobs.size()) + " jobs journaled)")
        .hint(std::move(how));
  }

  if (interrupted) {
    sink.close_interrupted();
    meter.finish();
    const std::string partial =
        opts_.jsonl_path.empty() ? "" : opts_.jsonl_path + ".partial";
    throw SweepInterrupted(meter.done(), jobs.size(), partial);
  }

  try {
    sink.finish();
  } catch (Error& e) {
    meter.finish();
    // The partial journal is complete and sealed; only the publish
    // failed. --resume replays it without re-simulating anything.
    throw std::move(e).context("publishing sweep journal");
  }
  meter.finish();
  if (opts_.progress) {
    const usize used = std::max<usize>(threads, 1);
    std::cerr << meter.summary() << " [" << used << " worker"
              << (used == 1 ? "" : "s") << "]\n";
  }
  return outcomes;
}

usize quarantined_count(const std::vector<JobOutcome>& outcomes) noexcept {
  usize n = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.quarantined) ++n;
  }
  return n;
}

int sweep_exit_code(const std::vector<JobOutcome>& outcomes) noexcept {
  if (quarantined_count(outcomes) > 0) return kExitQuarantine;
  for (const JobOutcome& o : outcomes) {
    if (!o.ok) return 1;
  }
  return 0;
}

std::vector<TagGroup> group_by_tag(const std::vector<JobOutcome>& outcomes) {
  std::vector<TagGroup> groups;
  for (const auto& o : outcomes) {
    TagGroup* g = nullptr;
    for (auto& existing : groups) {
      if (existing.tag == o.job.tag) {
        g = &existing;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(TagGroup{o.job.tag, {}});
      g = &groups.back();
    }
    g->outcomes.push_back(&o);
  }
  return groups;
}

std::vector<SimResult> results_of(
    const std::vector<const JobOutcome*>& group) {
  std::vector<SimResult> results;
  results.reserve(group.size());
  for (const JobOutcome* o : group) {
    if (!o->ok) {
      throw Error(Errc::kInternal,
                  "job failed (" + o->job.workload +
                      (o->job.tag.empty() ? "" : ", " + o->job.tag) +
                      "): " + o->error)
          .hint("inspect the job's error above; aggregate reports need "
                "every job in the group to have succeeded");
    }
    results.push_back(o->result);
  }
  return results;
}

}  // namespace cnt::exec
