// Build each sweep input once: the input plan and the shared-input table.
//
// A sweep replays one set of workloads under many configurations, and a
// job's input depends only on its key (workload, scale, seed_offset).
// plan_inputs() groups the pending jobs by that key; the engine
// dispatches the groups in first-appearance order and each group's jobs
// in submission order. SharedInputs then holds one slot per group: the
// first job of a group to start builds the Workload, the others share it
// read-only, and the slot is freed when the group's last job reaches its
// final outcome (after any retries). A build that throws is not cached:
// every job of the group records its own (identical) error and a retry
// rebuilds. A job waiting for another worker's build waits in bounded
// slices and stays cancellable by its attempt's token.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "exec/sweep.hpp"
#include "trace/trace.hpp"

namespace cnt::exec {

/// The jobs that replay one input: indices into the job list, ascending.
using InputGroup = std::vector<usize>;

/// Group `pending` (indices into `jobs`, ascending) by input key
/// (workload, scale, seed_offset). Groups come in first-appearance order
/// and each holds its jobs in submission order, so the concatenated
/// groups are a permutation of `pending` -- the engine's dispatch order.
/// An all-distinct job list keeps submission order.
[[nodiscard]] std::vector<InputGroup> plan_inputs(
    const std::vector<Job>& jobs, const std::vector<usize>& pending);

class SharedInputs {
 public:
  /// Builds a job's input; the default is build_workload().
  using Builder = std::function<Workload(const Job&)>;

  /// One slot per group over a job list of `job_count` jobs. A job is
  /// identified by its id, which indexes the job list (the engine's
  /// dense ids).
  SharedInputs(usize job_count, const std::vector<InputGroup>& groups,
               Builder builder = {});

  SharedInputs(const SharedInputs&) = delete;
  SharedInputs& operator=(const SharedInputs&) = delete;

  /// The input of `job`'s group. Shares the built input when there is
  /// one; otherwise builds it in the calling thread (setting `built`),
  /// or waits while another thread builds it. Throws what the builder
  /// throws (nothing is cached then), and the cancellation error when
  /// this thread's token fires during a wait.
  [[nodiscard]] std::shared_ptr<const Workload> acquire(const Job& job,
                                                        bool& built);

  /// `job` reached its final outcome (or will never run): the group's
  /// input is freed after its last job.
  void release(const Job& job);

  /// Inputs built successfully so far.
  [[nodiscard]] u64 builds() const;

 private:
  struct Slot {
    std::shared_ptr<const Workload> input;  // cnt-lint: guarded-by(mu_)
    bool building = false;                  // cnt-lint: guarded-by(mu_)
    usize unreleased = 0;                   // cnt-lint: guarded-by(mu_)
  };

  Builder builder_;
  std::vector<usize> slot_of_;  ///< job index -> slot; immutable

  mutable std::mutex mu_;
  std::condition_variable built_cv_;  ///< signalled when a build ends
  std::vector<Slot> slots_;           // cnt-lint: guarded-by(mu_)
  u64 builds_ = 0;                    // cnt-lint: guarded-by(mu_)
};

}  // namespace cnt::exec
