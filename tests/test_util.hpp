// Shared helpers for scheduler-level tests: quick construction of JobSpecs,
// JobViews, and SchedulerContexts without running a simulation.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "sim/scheduler.hpp"

namespace hadar::test {

/// Owns JobSpecs and builds a SchedulerContext over them. Every built
/// context carries nonzero epochs: jobs_epoch changes exactly when add_job()
/// changes the job set, and cluster_epoch stays 1 (the spec never changes).
/// A test that edits ctx.jobs by hand bumps ctx.jobs_epoch itself.
class ContextBuilder {
 public:
  explicit ContextBuilder(const cluster::ClusterSpec* spec) : spec_(spec) {}

  /// Adds a job; `rates` arity must match the spec's GPU types.
  ContextBuilder& add_job(int workers, double iterations, std::vector<double> rates,
                          Seconds arrival = 0.0) {
    auto j = std::make_unique<workload::JobSpec>();
    j->id = static_cast<JobId>(specs_.size());
    j->model = "test-" + std::to_string(j->id);
    j->arrival = arrival;
    j->num_workers = workers;
    j->epochs = static_cast<std::int64_t>(iterations);
    j->chunks_per_epoch = 1;
    j->throughput = std::move(rates);
    specs_.push_back(std::move(j));
    return *this;
  }

  /// Sets progress on the most recently added job.
  ContextBuilder& with_progress(double iterations_done) {
    progress_[specs_.size() - 1] = iterations_done;
    return *this;
  }

  /// Sets the DNN parameter size of the most recently added job.
  ContextBuilder& with_model_size(double mb) {
    specs_.back()->model_size_mb = mb;
    return *this;
  }

  /// Sets the absolute deadline of the most recently added job.
  ContextBuilder& with_deadline(Seconds deadline) {
    specs_.back()->deadline = deadline;
    return *this;
  }

  /// Sets the tenant of the most recently added job.
  ContextBuilder& with_tenant(int tenant) {
    specs_.back()->tenant = tenant;
    return *this;
  }

  sim::SchedulerContext build(Seconds now = 0.0, Seconds round_length = 360.0) const {
    sim::SchedulerContext ctx;
    ctx.spec = spec_;
    ctx.now = now;
    ctx.round_length = round_length;
    ctx.jobs_epoch = specs_.size() + 1;
    ctx.cluster_epoch = 1;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      sim::JobView v;
      v.spec = specs_[i].get();
      v.throughput = specs_[i]->throughput;
      v.rounds_on_type.assign(static_cast<std::size_t>(spec_->num_types()), 0);
      const auto it = progress_.find(i);
      if (it != progress_.end()) v.iterations_done = it->second;
      ctx.jobs.push_back(std::move(v));
    }
    return ctx;
  }

  const workload::JobSpec& spec(std::size_t i) const { return *specs_[i]; }

 private:
  const cluster::ClusterSpec* spec_;
  std::vector<std::unique_ptr<workload::JobSpec>> specs_;
  std::map<std::size_t, double> progress_;
};

}  // namespace hadar::test
