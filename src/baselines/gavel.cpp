#include "baselines/gavel.hpp"

#include <algorithm>

#include "common/binary.hpp"
#include "obs/trace.hpp"
#include "pipeline/stages.hpp"

namespace hadar::baselines {

const char* to_string(GavelPolicy p) {
  switch (p) {
    case GavelPolicy::kMaxMinFairness: return "max-min-fairness";
    case GavelPolicy::kMaxSumThroughput: return "max-sum-throughput";
    case GavelPolicy::kMinMakespan: return "min-makespan";
  }
  return "?";
}

// ------------------------------------------------------------- priority ---

void GavelChangeStage::prioritize(pipeline::RoundState& rs) {
  GavelPipelineState& s = *st_;
  const sim::SchedulerContext& ctx = *rs.ctx;
  sim::require_epochs(ctx, "Gavel");
  // Refresh Y on job arrival/completion events and topology changes; the
  // context bumps each epoch exactly when one happens. A topology change
  // also drops the warm-start basis: the cached LP operated on different
  // capacities, so its basis may be infeasible for the new one.
  const bool jobs_changed = ctx.jobs_epoch != s.last_epoch;
  const bool topo_changed = ctx.cluster_epoch != s.last_cluster_epoch;
  s.last_epoch = ctx.jobs_epoch;
  s.last_cluster_epoch = ctx.cluster_epoch;
  if (topo_changed) s.lp_ctx.clear();
  s.needs_solve = jobs_changed || topo_changed;
}

void GavelChangeStage::reset() {
  GavelPipelineState& s = *st_;
  s.last_epoch = 0;
  s.last_cluster_epoch = 0;
  s.needs_solve = false;
}

void GavelChangeStage::save_state(common::BinaryWriter& w) const {
  w.u64(st_->last_epoch);
  w.u64(st_->last_cluster_epoch);
}

void GavelChangeStage::restore_state(common::BinaryReader& r) {
  GavelPipelineState& s = *st_;
  s.last_epoch = r.u64();
  s.last_cluster_epoch = r.u64();
}

// ----------------------------------------------------------- allocation ---

void GavelLpStage::recompute_allocation(const sim::SchedulerContext& ctx) {
  GavelPipelineState& s = *st_;
  obs::ScopedSpan span("gavel", "gavel.recompute", 1);
  if (span.active()) span.arg("jobs", static_cast<double>(ctx.jobs.size()));
  obs::count("gavel.recomputes");
  const int R = ctx.spec->num_types();
  solver::MaxMinProblem& p = s.problem;  // reused across events
  p.cap.assign(static_cast<std::size_t>(R), 0.0);
  for (GpuTypeId r = 0; r < R; ++r) {
    p.cap[static_cast<std::size_t>(r)] = ctx.spec->total_of_type(r);
  }
  p.rate.resize(ctx.jobs.size());
  p.demand.clear();
  p.scale.clear();
  p.key.clear();
  for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
    const auto& job = ctx.jobs[i];
    std::vector<double>& row = p.rate[i];
    row.assign(static_cast<std::size_t>(R), 0.0);
    for (GpuTypeId r = 0; r < R; ++r) {
      row[static_cast<std::size_t>(r)] = job.throughput_on(r) * job.spec->num_workers;
    }
    p.demand.push_back(job.spec->num_workers);
    if (s.cfg.policy == GavelPolicy::kMinMakespan) {
      // Normalize by remaining work: equalizing work-normalized throughput
      // aligns completion times, which is what minimizes the makespan.
      p.scale.push_back(std::max(1.0, job.remaining_iterations()));
    } else {
      // Normalize by the job's ideal (fastest-type) aggregate throughput so
      // the objective compares *relative* progress across jobs.
      p.scale.push_back(std::max(1e-9, job.max_throughput() * job.spec->num_workers));
    }
    // Warm-start identity: the LP basis is remembered per (job id, type).
    p.key.push_back(job.id());
  }

  const solver::MaxMinSolution sol = s.cfg.policy == GavelPolicy::kMaxSumThroughput
                                         ? solver::solve_max_sum(p, s.cfg.solver, &s.lp_ctx)
                                         : solver::solve_max_min(p, s.cfg.solver, &s.lp_ctx);
  s.y.clear();
  for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
    s.y[ctx.jobs[i].id()] =
        sol.feasible ? sol.y[i] : std::vector<double>(static_cast<std::size_t>(R), 0.0);
  }
}

void GavelLpStage::allocate(pipeline::RoundState& rs) {
  GavelPipelineState& s = *st_;
  const sim::SchedulerContext& ctx = *rs.ctx;
  const int R = ctx.spec->num_types();

  if (s.needs_solve) recompute_allocation(ctx);
  s.needs_solve = false;

  // Priority list over (job, type): Y / (rounds received on that type).
  rs.ranked.reserve(ctx.jobs.size() * static_cast<std::size_t>(R));
  for (const auto& job : ctx.jobs) {
    const auto it = s.y.find(job.id());
    if (it == s.y.end()) continue;
    for (GpuTypeId r = 0; r < R; ++r) {
      if (job.throughput_on(r) <= 0.0) continue;
      const double y = it->second[static_cast<std::size_t>(r)];
      const double rounds = job.rounds_on_type.empty()
                                ? 0.0
                                : job.rounds_on_type[static_cast<std::size_t>(r)];
      // Tiny floor keeps zero-Y rows schedulable when capacity would
      // otherwise idle (Gavel breaks ties the same way via water-filling).
      const double pr = std::max(y, 1e-6) / (rounds + s.cfg.rounds_epsilon);
      rs.ranked.push_back(pipeline::RoundState::Candidate{&job, r, pr});
    }
  }
  using Candidate = pipeline::RoundState::Candidate;
  std::sort(rs.ranked.begin(), rs.ranked.end(), [](const Candidate& a, const Candidate& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.job->id() != b.job->id()) return a.job->id() < b.job->id();
    return a.type < b.type;
  });
}

void GavelLpStage::reset() {
  st_->y.clear();
  st_->lp_ctx.clear();
}

void GavelLpStage::save_state(common::BinaryWriter& w) const {
  const GavelPipelineState& s = *st_;
  w.u32(static_cast<std::uint32_t>(s.y.size()));
  for (const auto& [id, row] : s.y) {
    w.i32(id);
    common::write_f64_vector(w, row);
  }
}

void GavelLpStage::restore_state(common::BinaryReader& r) {
  GavelPipelineState& s = *st_;
  s.y.clear();
  s.lp_ctx.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const JobId id = r.i32();
    s.y[id] = common::read_f64_vector(r);
  }
}

// ------------------------------------------------------------- assembly ---

namespace {

pipeline::StageSet gavel_stages_for(const std::shared_ptr<GavelPipelineState>& st) {
  pipeline::StageSet set;
  set.admission = std::make_shared<pipeline::PassThroughAdmissionStage>();
  set.priority = std::make_shared<GavelChangeStage>(st);
  set.allocation = std::make_shared<GavelLpStage>(st);
  set.placement = std::make_shared<pipeline::GreedyPlacementStage>();
  set.preemption = std::make_shared<pipeline::NoPreemptionStage>();
  return set;
}

std::shared_ptr<GavelPipelineState> gavel_state_for(GavelConfig cfg) {
  auto st = std::make_shared<GavelPipelineState>();
  st->cfg = cfg;
  return st;
}

}  // namespace

pipeline::StageSet make_gavel_stages(GavelConfig cfg,
                                     std::shared_ptr<GavelPipelineState>* state) {
  auto st = gavel_state_for(cfg);
  if (state != nullptr) *state = st;
  return gavel_stages_for(st);
}

GavelScheduler::GavelScheduler(GavelConfig cfg) : GavelScheduler(gavel_state_for(cfg)) {}

GavelScheduler::GavelScheduler(std::shared_ptr<GavelPipelineState> st)
    : StagedScheduler("Gavel", gavel_stages_for(st)), st_(std::move(st)) {}

std::vector<double> GavelScheduler::allocation_row(JobId id) const {
  const auto it = st_->y.find(id);
  return it != st_->y.end() ? it->second : std::vector<double>{};
}

}  // namespace hadar::baselines
