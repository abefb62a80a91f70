#include "exec/shared_inputs.hpp"

#include <bit>
#include <chrono>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "common/cancel.hpp"
#include "trace/workload_suite.hpp"

namespace cnt::exec {

namespace {

/// A waiter re-checks its cancellation token at least this often.
constexpr std::chrono::milliseconds kWaitSlice{10};

}  // namespace

std::vector<InputGroup> plan_inputs(const std::vector<Job>& jobs,
                                    const std::vector<usize>& pending) {
  // The scale is keyed by its bit pattern: exact, and a NaN from a
  // hand-built job cannot break the map's ordering.
  using Key = std::tuple<std::string, u64, u64>;
  std::map<Key, usize> group_of;
  std::vector<InputGroup> groups;
  for (const usize i : pending) {
    const Job& job = jobs[i];
    const auto [it, fresh] = group_of.try_emplace(
        Key{job.workload, std::bit_cast<u64>(job.scale), job.seed_offset},
        groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

SharedInputs::SharedInputs(usize job_count,
                           const std::vector<InputGroup>& groups,
                           Builder builder)
    : builder_(std::move(builder)), slot_of_(job_count, 0) {
  if (!builder_) {
    builder_ = [](const Job& job) {
      return build_workload(job.workload, job.scale, job.seed_offset);
    };
  }
  std::lock_guard lock(mu_);
  slots_.resize(groups.size());
  for (usize g = 0; g < groups.size(); ++g) {
    for (const usize i : groups[g]) slot_of_[i] = g;
    slots_[g].unreleased = groups[g].size();
  }
}

std::shared_ptr<const Workload> SharedInputs::acquire(const Job& job,
                                                      bool& built) {
  built = false;
  std::unique_lock lock(mu_);
  Slot& slot = slots_[slot_of_[static_cast<usize>(job.id)]];
  while (slot.input == nullptr) {
    if (!slot.building) {
      // Build outside the lock so other groups' jobs proceed meanwhile.
      slot.building = true;
      lock.unlock();
      std::shared_ptr<const Workload> input;
      try {
        input = std::make_shared<const Workload>(builder_(job));
      } catch (...) {
        lock.lock();
        slot.building = false;
        built_cv_.notify_all();
        throw;
      }
      lock.lock();
      slot.building = false;
      slot.input = input;
      ++builds_;
      built_cv_.notify_all();
      built = true;
      return input;
    }
    // Another worker is building this input. Bounded slices keep the
    // wait cancellable: the watchdog cannot signal this condition
    // variable, so each slice re-checks the attempt's token.
    cancel::throw_if_cancelled("engine.input");
    built_cv_.wait_for(lock, kWaitSlice);
  }
  return slot.input;
}

void SharedInputs::release(const Job& job) {
  std::shared_ptr<const Workload> last;  // freed outside the lock
  std::lock_guard lock(mu_);
  Slot& slot = slots_[slot_of_[static_cast<usize>(job.id)]];
  if (slot.unreleased > 0 && --slot.unreleased == 0) {
    last = std::move(slot.input);
  }
}

u64 SharedInputs::builds() const {
  std::lock_guard lock(mu_);
  return builds_;
}

}  // namespace cnt::exec
