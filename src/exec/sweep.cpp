#include "exec/sweep.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "trace/workload_suite.hpp"

namespace cnt::exec {

namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

SweepSpec& SweepSpec::base(const SimConfig& cfg) {
  base_ = cfg;
  return *this;
}

SweepSpec& SweepSpec::scale(double s) {
  if (!std::isfinite(s) || s <= 0.0) {
    throw std::invalid_argument("SweepSpec: scale must be finite and > 0");
  }
  scale_ = s;
  return *this;
}

SweepSpec& SweepSpec::workload(const std::string& name) {
  workloads_.push_back(name);
  return *this;
}

SweepSpec& SweepSpec::workloads(std::vector<std::string> names) {
  workloads_ = std::move(names);
  return *this;
}

SweepSpec& SweepSpec::suite() {
  workloads_ = suite_names();
  return *this;
}

SweepSpec& SweepSpec::seed_offsets(std::vector<u64> offsets) {
  if (offsets.empty()) {
    throw std::invalid_argument("SweepSpec: seed_offsets must be non-empty");
  }
  seed_offsets_ = std::move(offsets);
  return *this;
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<std::string> labels,
                           std::function<void(SimConfig&, usize)> apply) {
  if (labels.empty()) {
    throw std::invalid_argument("SweepSpec: axis needs at least one value");
  }
  axes_.push_back(
      Axis{std::move(name), std::move(labels), std::move(apply)});
  return *this;
}

SweepSpec& SweepSpec::axis(std::string name, const std::vector<usize>& values,
                           std::function<void(SimConfig&, usize)> apply) {
  std::vector<std::string> labels;
  labels.reserve(values.size());
  for (const usize v : values) labels.push_back(std::to_string(v));
  return axis(std::move(name), std::move(labels),
              [values, apply = std::move(apply)](SimConfig& cfg, usize i) {
                apply(cfg, values[i]);
              });
}

SweepSpec& SweepSpec::axis(std::string name, const std::vector<double>& values,
                           std::function<void(SimConfig&, double)> apply) {
  std::vector<std::string> labels;
  labels.reserve(values.size());
  for (const double v : values) labels.push_back(format_double(v));
  return axis(std::move(name), std::move(labels),
              [values, apply = std::move(apply)](SimConfig& cfg, usize i) {
                apply(cfg, values[i]);
              });
}

std::vector<std::string> SweepSpec::effective_workloads() const {
  return workloads_.empty() ? suite_names() : workloads_;
}

usize SweepSpec::job_count() const {
  usize combos = 1;
  for (const auto& a : axes_) combos *= a.labels.size();
  return combos * seed_offsets_.size() * effective_workloads().size();
}

std::vector<Job> SweepSpec::expand() const {
  const std::vector<std::string> loads = effective_workloads();
  std::vector<Job> jobs;
  jobs.reserve(job_count());

  // Odometer over the axes, first axis slowest (outermost loop), matching
  // how the serial benches nest their sweep loops.
  std::vector<usize> idx(axes_.size(), 0);
  for (;;) {
    SimConfig cfg = base_;
    std::string tag;
    for (usize a = 0; a < axes_.size(); ++a) {
      axes_[a].apply(cfg, idx[a]);
      if (!tag.empty()) tag += ',';
      tag += axes_[a].name + '=' + axes_[a].labels[idx[a]];
    }
    for (const u64 seed : seed_offsets_) {
      for (const auto& w : loads) {
        Job job;
        job.id = static_cast<u64>(jobs.size());
        job.workload = w;
        job.tag = tag;
        job.config = cfg;
        job.scale = scale_;
        job.seed_offset = seed;
        jobs.push_back(std::move(job));
      }
    }
    // Advance the odometer, last axis fastest.
    usize a = axes_.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes_[a].labels.size()) break;
      idx[a] = 0;
      if (a == 0) return jobs;
    }
    if (axes_.empty()) return jobs;
  }
}

}  // namespace cnt::exec
