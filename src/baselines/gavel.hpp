// Gavel [1] baseline: job-level heterogeneity-aware scheduling, expressed
// as a round pipeline (src/pipeline/).
//
// Gavel computes an optimal time-fraction matrix Y[j][r] (the share of
// wall-clock time job j should spend on GPU type r) by solving a max-min
// fairness program over normalized effective throughputs, then realizes Y
// with round-based priority scheduling: priority(j, r) = Y[j][r] divided by
// the rounds job j has already received on type r. Within a round every job
// runs on ONE device type (job-level homogeneity) — the limitation Hadar's
// task-level mixing removes.
//
// Stage split: the priority stage detects job-set/topology change events
// (SchedulerContext::jobs_epoch / cluster_epoch, which must be nonzero) and
// flags a refresh; the allocation stage runs the LP solve — warm-started
// across events through a solver::MaxMinContext — rebuilds Y, and emits the
// sorted (job, type) priority entries; the shared greedy placement stage
// packs them with take_homogeneous().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pipeline/staged_scheduler.hpp"
#include "solver/maxmin.hpp"

namespace hadar::baselines {

/// Gavel's pluggable optimization objectives (its generality claim):
enum class GavelPolicy {
  /// max-min fairness over normalized effective throughput (Gavel default)
  kMaxMinFairness,
  /// maximize the sum of normalized throughputs (cluster efficiency)
  kMaxSumThroughput,
  /// minimize makespan: max-min over throughput normalized by *remaining*
  /// work, which equalizes completion times
  kMinMakespan,
};

const char* to_string(GavelPolicy p);

struct GavelConfig {
  GavelPolicy policy = GavelPolicy::kMaxMinFairness;
  solver::MaxMinOptions solver;
  /// Priority denominator smoothing: priority = Y / (rounds_on_type + eps).
  double rounds_epsilon = 1.0;
};

/// The core the Gavel stages share. The last-seen epochs are owned
/// (reset/persisted) by the priority stage, the Y matrix by the allocation
/// stage; needs_solve is a per-round flag the priority stage writes and the
/// allocation stage consumes. The LP is always warm-started from the
/// previous event's optimal basis; canonical extraction makes that
/// invisible in the solutions.
struct GavelPipelineState {
  GavelConfig cfg;
  std::uint64_t last_epoch = 0;             ///< last ctx.jobs_epoch acted on
  std::uint64_t last_cluster_epoch = 0;     ///< last ctx.cluster_epoch acted on
  std::map<JobId, std::vector<double>> y;   ///< time-fraction rows
  solver::MaxMinContext lp_ctx;             ///< warm-start basis across events
  solver::MaxMinProblem problem;            ///< reused LP input buffers
  bool needs_solve = false;                 ///< per-round: refresh Y this round
};

/// Priority: event detection. Flags a Y refresh on job-set changes and
/// topology changes (the latter also drops the warm-start basis: the cached
/// LP operated on different capacities, so its basis may be infeasible).
/// Throws std::invalid_argument on a context with a zero epoch.
class GavelChangeStage final : public pipeline::IPriorityStage {
 public:
  explicit GavelChangeStage(std::shared_ptr<GavelPipelineState> st) : st_(std::move(st)) {}
  std::string name() const override { return "gavel.refresh-detect"; }
  void prioritize(pipeline::RoundState& rs) override;
  void reset() override;
  void save_state(common::BinaryWriter& w) const override;
  void restore_state(common::BinaryReader& r) override;

 private:
  std::shared_ptr<GavelPipelineState> st_;
};

/// Allocation: the LP solve. Recomputes Y when flagged, then emits the
/// round's ranked (job, type) entries — Y / (rounds received on that type),
/// sorted best-first — for the shared greedy placement stage.
class GavelLpStage final : public pipeline::IAllocationStage {
 public:
  explicit GavelLpStage(std::shared_ptr<GavelPipelineState> st) : st_(std::move(st)) {}
  std::string name() const override { return "gavel.lp"; }
  void allocate(pipeline::RoundState& rs) override;
  void reset() override;
  void save_state(common::BinaryWriter& w) const override;
  void restore_state(common::BinaryReader& r) override;

 private:
  void recompute_allocation(const sim::SchedulerContext& ctx);

  std::shared_ptr<GavelPipelineState> st_;
};

/// The Gavel stage assembly. `state`, when non-null, receives the shared
/// core (tests compose mixed pipelines from these stages).
pipeline::StageSet make_gavel_stages(GavelConfig cfg,
                                     std::shared_ptr<GavelPipelineState>* state = nullptr);

class GavelScheduler final : public pipeline::StagedScheduler {
 public:
  explicit GavelScheduler(GavelConfig cfg = {});

  /// Last computed Y row for a job (tests/introspection); empty if unknown.
  std::vector<double> allocation_row(JobId id) const;

 private:
  explicit GavelScheduler(std::shared_ptr<GavelPipelineState> st);

  std::shared_ptr<GavelPipelineState> st_;
};

}  // namespace hadar::baselines
