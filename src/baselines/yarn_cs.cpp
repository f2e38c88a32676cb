#include "baselines/yarn_cs.hpp"

#include "common/binary.hpp"
#include "pipeline/stages.hpp"

namespace hadar::baselines {

void YarnAdmissionStage::admit(pipeline::RoundState& rs) {
  const sim::SchedulerContext& ctx = *rs.ctx;
  sim::require_epochs(ctx, "YARN-CS");

  // Drop finished jobs (present in running_, absent from the context). The
  // O(running * jobs) scan only pays off when the runnable set actually
  // changed.
  if (ctx.jobs_epoch != last_epoch_) {
    last_epoch_ = ctx.jobs_epoch;
    for (auto it = running_.begin(); it != running_.end();) {
      if (ctx.find(it->first) == nullptr) {
        it = running_.erase(it);
      } else {
        ++it;
      }
    }
  }

  for (auto it = running_.begin(); it != running_.end();) {
    // Running jobs are never disturbed — unless their node died under them
    // (the simulator clears such jobs' allocations, so they also reappear in
    // the queue below and wait for readmission like any other arrival).
    if (!rs.state->can_allocate(it->second)) {
      it = running_.erase(it);
      continue;
    }
    rs.state->allocate(it->second);
    rs.result.emplace(it->first, it->second);
    ++it;
  }

  // Everyone else waits in strict arrival order.
  rs.queue.reserve(rs.jobs.size());
  for (const auto& job : rs.jobs) {
    if (running_.count(job.id())) continue;
    rs.queue.push_back(&job);
  }
}

void YarnAdmissionStage::note_placed(JobId id, const cluster::JobAllocation& alloc) {
  running_.emplace(id, alloc);
}

void YarnAdmissionStage::reset() {
  running_.clear();
  last_epoch_ = 0;
}

void YarnAdmissionStage::save_state(common::BinaryWriter& w) const {
  w.u64(last_epoch_);
  w.u32(static_cast<std::uint32_t>(running_.size()));
  for (const auto& [id, alloc] : running_) {
    w.i32(id);
    alloc.save(w);
  }
}

void YarnAdmissionStage::restore_state(common::BinaryReader& r) {
  reset();
  last_epoch_ = r.u64();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const JobId id = r.i32();
    running_.emplace(id, cluster::JobAllocation::restore(r));
  }
}

namespace {

pipeline::StageSet yarn_stages(YarnConfig cfg) {
  auto admission = std::make_shared<YarnAdmissionStage>();
  pipeline::GreedyPlacementOptions opts;
  opts.stop_on_first_failure = !cfg.backfill;  // head-of-line blocking
  pipeline::StageSet set;
  set.admission = admission;
  set.priority = std::make_shared<pipeline::ArrivalOrderPriorityStage>();
  set.allocation = std::make_shared<pipeline::NoSolveStage>();
  set.placement = std::make_shared<pipeline::GreedyPlacementStage>(
      opts, [admission](JobId id, const cluster::JobAllocation& alloc) {
        admission->note_placed(id, alloc);
      });
  set.preemption = std::make_shared<pipeline::NoPreemptionStage>();
  return set;
}

}  // namespace

YarnCsScheduler::YarnCsScheduler(YarnConfig cfg)
    : StagedScheduler("YARN-CS", yarn_stages(cfg)) {}

}  // namespace hadar::baselines
