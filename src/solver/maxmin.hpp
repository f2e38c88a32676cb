// Max-min fair time-fraction allocation, the optimization at the heart of
// the Gavel baseline: compute Y[j][r] (fraction of wall-clock time job j
// should spend on GPU type r) maximizing the minimum normalized throughput
//
//   max  min_j ( sum_r Y[j][r] * rate[j][r] / scale[j] )
//   s.t. sum_r Y[j][r]            <= 1        for every job
//        sum_j Y[j][r] * demand[j] <= cap[r]  for every type
//        Y >= 0
//
// Two solvers: an exact LP (the sparse revised simplex, warm-started across
// events; used for small job counts) and an event-driven progressive-filling
// heuristic (linear-time per event; used beyond `lp_job_threshold`, mirroring
// how Gavel falls back to faster approximations at scale). An LP solve that
// ends non-optimal also falls through to the heuristic.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/revised_simplex.hpp"

namespace hadar::solver {

struct MaxMinProblem {
  /// rate[j][r]: job j's aggregate useful throughput when running fully on
  /// type r (0 when the job cannot run there).
  std::vector<std::vector<double>> rate;
  /// demand[j]: devices consumed while job j runs (its gang size W_j).
  std::vector<double> demand;
  /// cap[r]: devices of type r in the cluster.
  std::vector<double> cap;
  /// scale[j]: normalization (e.g. the job's ideal isolated throughput).
  /// Empty => all ones.
  std::vector<double> scale;
  /// key[j]: stable non-negative identity per job (e.g. the JobId), used to
  /// warm-start the LP across re-solves as jobs arrive/complete. Empty =>
  /// positional keys 0..J-1 (warm start then only matches when the job set
  /// is unchanged or shrinks from the back).
  std::vector<std::int64_t> key;
};

/// Warm-start state carried across successive solves of the same problem
/// family (one LpContext per LP shape). Owned by the caller (e.g. the Gavel
/// scheduler, which clears it whenever the capacities change); pass nullptr
/// for context-free solves. A saved basis that no longer fits the LP falls
/// back to a cold start inside LpContext::solve.
struct MaxMinContext {
  LpContext max_min;
  LpContext max_sum;

  void clear() {
    max_min.clear();
    max_sum.clear();
  }
};

struct MaxMinSolution {
  bool feasible = false;
  double min_normalized_throughput = 0.0;
  /// Y[j][r] time fractions.
  std::vector<std::vector<double>> y;
};

struct MaxMinOptions {
  int lp_job_threshold = 96;  ///< above this many jobs, use the heuristic
  int max_lp_iterations = 200000;
};

/// Solves with the exact LP regardless of size. A non-optimal outcome
/// (iteration limit, numerically lost basis) reports feasible = false and
/// bumps the `lp.non_optimal` counter.
MaxMinSolution solve_max_min_lp(const MaxMinProblem& p, int max_iterations = 200000,
                                MaxMinContext* ctx = nullptr);

/// Progressive-filling heuristic: every job draws time on its fastest
/// remaining type at the common normalized rate until its time budget or a
/// capacity saturates.
MaxMinSolution solve_max_min_filling(const MaxMinProblem& p);

/// Dispatches on problem size per `opts`.
MaxMinSolution solve_max_min(const MaxMinProblem& p, const MaxMinOptions& opts = {},
                             MaxMinContext* ctx = nullptr);

/// Total-throughput maximization over the same constraint polytope:
///   max sum_j sum_r Y[j][r] * rate[j][r] / scale[j]
/// (Gavel's "maximize sum of normalized throughputs" policy family).
/// Uses the exact LP up to the job threshold, then a greedy density fill.
MaxMinSolution solve_max_sum(const MaxMinProblem& p, const MaxMinOptions& opts = {},
                             MaxMinContext* ctx = nullptr);

}  // namespace hadar::solver
