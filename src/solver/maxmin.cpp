#include "solver/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "solver/lp.hpp"

namespace hadar::solver {
namespace {

void check(const MaxMinProblem& p) {
  const std::size_t j_count = p.rate.size();
  if (p.demand.size() != j_count) throw std::invalid_argument("MaxMin: demand arity");
  if (!p.scale.empty() && p.scale.size() != j_count) {
    throw std::invalid_argument("MaxMin: scale arity");
  }
  for (const auto& row : p.rate) {
    if (row.size() != p.cap.size()) throw std::invalid_argument("MaxMin: rate arity");
  }
  for (double d : p.demand) {
    if (d <= 0.0) throw std::invalid_argument("MaxMin: non-positive demand");
  }
  for (double c : p.cap) {
    if (c < 0.0) throw std::invalid_argument("MaxMin: negative capacity");
  }
  if (!p.key.empty()) {
    if (p.key.size() != j_count) throw std::invalid_argument("MaxMin: key arity");
    for (std::int64_t k : p.key) {
      if (k < 0) throw std::invalid_argument("MaxMin: negative key");
    }
  }
}

double scale_of(const MaxMinProblem& p, std::size_t j) {
  return p.scale.empty() ? 1.0 : p.scale[j];
}

std::int64_t key_of(const MaxMinProblem& p, int j) {
  return p.key.empty() ? j : p.key[static_cast<std::size_t>(j)];
}

// Runs one LP solve, warm-started from `lpctx` when given. A non-optimal
// outcome leaves the caller to report infeasible; LpContext::solve has
// already dropped the warm basis.
LpSolution solve_lp(const LpProblem& lp, const LpLabels& labels, int max_iterations,
                    LpContext* lpctx) {
  obs::ScopedSpan span("lp", "lp.solve", 1);
  if (span.active()) {
    span.arg("rows", static_cast<double>(lp.num_constraints()));
    span.arg("vars", static_cast<double>(lp.num_vars()));
  }
  obs::count("lp.solves");
  SimplexOptions opts;
  opts.max_iterations = max_iterations;
  const LpSolution sol = lpctx != nullptr ? lpctx->solve(lp, labels, opts)
                                          : solve_revised(lp, opts);
  if (sol.status != LpStatus::kOptimal) obs::count("lp.non_optimal");
  if (span.active()) span.str_arg("status", to_string(sol.status));
  return sol;
}

}  // namespace

MaxMinSolution solve_max_min_lp(const MaxMinProblem& p, int max_iterations,
                                MaxMinContext* ctx) {
  check(p);
  const int J = static_cast<int>(p.rate.size());
  const int R = static_cast<int>(p.cap.size());
  MaxMinSolution sol;
  sol.y.assign(static_cast<std::size_t>(J), std::vector<double>(static_cast<std::size_t>(R), 0.0));
  if (J == 0) {
    sol.feasible = true;
    return sol;
  }

  // Variable layout: [z, Y(0,0..R-1), Y(1,..), ...]. Rows are sparse: each
  // job row touches only its own R variables (plus z).
  const int nv = 1 + J * R;
  auto yvar = [R](int j, int r) { return 1 + j * R + r; };
  LpProblem lp(nv);
  lp.set_objective(0, 1.0);  // max z

  // Warm-start labels, stable across job arrivals/completions: variables
  // are keyed by (job key, type); rows by job key for the two per-job rows
  // and by -(r+1) for the capacity rows. z gets -1 (keys are >= 0, so no
  // clash). Variable and row label spaces are matched independently.
  LpLabels labels;
  labels.var.assign(static_cast<std::size_t>(nv), -1);
  std::vector<SparseEntry> row;
  row.reserve(static_cast<std::size_t>(R) + 1);
  for (int j = 0; j < J; ++j) {
    const double s = scale_of(p, static_cast<std::size_t>(j));
    const std::int64_t k = key_of(p, j);
    // z - sum_r Y[j][r]*rate/scale <= 0
    row.clear();
    row.push_back({0, 1.0});
    for (int r = 0; r < R; ++r) {
      labels.var[static_cast<std::size_t>(yvar(j, r))] =
          k * R + r;
      const double rate = p.rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
      if (rate != 0.0) row.push_back({yvar(j, r), -rate / s});
    }
    lp.add_constraint_sparse(row, Relation::kLessEqual, 0.0);
    labels.row.push_back(2 * k);

    // sum_r Y[j][r] <= 1
    row.clear();
    for (int r = 0; r < R; ++r) row.push_back({yvar(j, r), 1.0});
    lp.add_constraint_sparse(row, Relation::kLessEqual, 1.0);
    labels.row.push_back(2 * k + 1);
  }
  for (int r = 0; r < R; ++r) {
    row.clear();
    for (int j = 0; j < J; ++j) {
      row.push_back({yvar(j, r), p.demand[static_cast<std::size_t>(j)]});
    }
    lp.add_constraint_sparse(row, Relation::kLessEqual, p.cap[static_cast<std::size_t>(r)]);
    labels.row.push_back(-(r + 1));
  }

  const LpSolution lsol =
      solve_lp(lp, labels, max_iterations, ctx != nullptr ? &ctx->max_min : nullptr);
  if (lsol.status != LpStatus::kOptimal) return sol;  // infeasible/limit => !feasible

  sol.feasible = true;
  sol.min_normalized_throughput = std::max(0.0, lsol.objective);
  for (int j = 0; j < J; ++j) {
    for (int r = 0; r < R; ++r) {
      sol.y[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] =
          std::max(0.0, lsol.x[static_cast<std::size_t>(yvar(j, r))]);
    }
  }
  return sol;
}

MaxMinSolution solve_max_min_filling(const MaxMinProblem& p) {
  check(p);
  const std::size_t J = p.rate.size();
  const std::size_t R = p.cap.size();
  MaxMinSolution sol;
  sol.feasible = true;
  sol.y.assign(J, std::vector<double>(R, 0.0));
  if (J == 0) return sol;

  std::vector<double> cap = p.cap;
  std::vector<double> budget(J, 1.0);  // remaining time fraction per job
  std::vector<bool> active(J, true);
  double z = 0.0;                      // common normalized throughput level
  double min_final = std::numeric_limits<double>::infinity();
  bool any_ran = false;

  // Contention pressure per type: how many active jobs have this type as
  // their strictly-best remaining option. Flexible jobs drawing on a
  // near-tie type should yield the contested pool to inflexible ones.
  auto type_pressure = [&]() {
    std::vector<int> pressure(R, 0);
    for (std::size_t j = 0; j < J; ++j) {
      if (!active[j]) continue;
      int best = -1;
      for (std::size_t r = 0; r < R; ++r) {
        if (cap[r] > 1e-12 && p.rate[j][r] > 0.0 &&
            (best < 0 || p.rate[j][r] > p.rate[j][static_cast<std::size_t>(best)])) {
          best = static_cast<int>(r);
        }
      }
      // Count only jobs whose best strictly dominates their second option.
      if (best >= 0) {
        bool strict = true;
        for (std::size_t r = 0; r < R; ++r) {
          if (static_cast<int>(r) != best && cap[r] > 1e-12 &&
              p.rate[j][r] >= 0.95 * p.rate[j][static_cast<std::size_t>(best)]) {
            strict = false;
          }
        }
        if (strict) ++pressure[static_cast<std::size_t>(best)];
      }
    }
    return pressure;
  };

  // Best available type for job j: max rate with residual capacity; among
  // near-ties (>= 95% of the best rate), the least contended pool.
  std::vector<int> pressure(R, 0);
  auto best_type = [&](std::size_t j) -> int {
    double best_rate = 0.0;
    for (std::size_t r = 0; r < R; ++r) {
      if (cap[r] > 1e-12) best_rate = std::max(best_rate, p.rate[j][r]);
    }
    if (best_rate <= 0.0) return -1;
    int pick = -1;
    for (std::size_t r = 0; r < R; ++r) {
      if (cap[r] > 1e-12 && p.rate[j][r] >= 0.95 * best_rate) {
        if (pick < 0 || pressure[r] < pressure[static_cast<std::size_t>(pick)]) {
          pick = static_cast<int>(r);
        }
      }
    }
    return pick;
  };

  for (std::size_t guard = 0; guard < J + R + 2; ++guard) {
    pressure = type_pressure();
    // Assign each active job its current drawing type; deactivate jobs with
    // no usable type left.
    std::vector<int> type_of(J, -1);
    bool any_active = false;
    for (std::size_t j = 0; j < J; ++j) {
      if (!active[j]) continue;
      const int r = best_type(j);
      if (r < 0 || budget[j] <= 1e-12) {
        active[j] = false;
        min_final = std::min(min_final, z);
        continue;
      }
      type_of[j] = r;
      any_active = true;
    }
    if (!any_active) break;
    any_ran = true;

    // Largest dz before a budget or a capacity binds.
    double dz = std::numeric_limits<double>::infinity();
    std::vector<double> drain(R, 0.0);  // capacity consumed per unit dz
    for (std::size_t j = 0; j < J; ++j) {
      if (!active[j] || type_of[j] < 0) continue;
      const auto r = static_cast<std::size_t>(type_of[j]);
      const double dy_per_dz = scale_of(p, j) / p.rate[j][r];
      dz = std::min(dz, budget[j] / dy_per_dz);
      drain[r] += p.demand[j] * dy_per_dz;
    }
    for (std::size_t r = 0; r < R; ++r) {
      if (drain[r] > 1e-12) dz = std::min(dz, cap[r] / drain[r]);
    }
    if (!(dz > 0.0) || !std::isfinite(dz)) break;

    // Apply the step.
    for (std::size_t j = 0; j < J; ++j) {
      if (!active[j] || type_of[j] < 0) continue;
      const auto r = static_cast<std::size_t>(type_of[j]);
      const double dy = scale_of(p, j) / p.rate[j][r] * dz;
      sol.y[j][r] += dy;
      budget[j] = std::max(0.0, budget[j] - dy);
      cap[r] = std::max(0.0, cap[r] - p.demand[j] * dy);
    }
    z += dz;
  }

  // Jobs still marked active ended at level z.
  for (std::size_t j = 0; j < J; ++j) {
    if (active[j]) min_final = std::min(min_final, z);
  }
  sol.min_normalized_throughput = any_ran && std::isfinite(min_final) ? min_final : 0.0;
  return sol;
}

MaxMinSolution solve_max_min(const MaxMinProblem& p, const MaxMinOptions& opts,
                             MaxMinContext* ctx) {
  if (static_cast<int>(p.rate.size()) <= opts.lp_job_threshold) {
    MaxMinSolution sol = solve_max_min_lp(p, opts.max_lp_iterations, ctx);
    if (sol.feasible) return sol;
    // LP ended non-optimal (rare): fall through to the heuristic.
  }
  return solve_max_min_filling(p);
}

namespace {

MaxMinSolution solve_max_sum_lp(const MaxMinProblem& p, int max_iterations,
                                MaxMinContext* ctx) {
  const int J = static_cast<int>(p.rate.size());
  const int R = static_cast<int>(p.cap.size());
  MaxMinSolution sol;
  sol.y.assign(static_cast<std::size_t>(J),
               std::vector<double>(static_cast<std::size_t>(R), 0.0));
  if (J == 0) {
    sol.feasible = true;
    return sol;
  }
  const int nv = J * R;
  auto yvar = [R](int j, int r) { return j * R + r; };
  LpProblem lp(nv);
  // Same label scheme as the max-min LP, minus z: vars (job key, type), the
  // per-job time row keyed by the job, capacity rows by -(r+1).
  LpLabels labels;
  labels.var.assign(static_cast<std::size_t>(nv), -1);
  std::vector<SparseEntry> row;
  row.reserve(static_cast<std::size_t>(std::max(J, R)));
  for (int j = 0; j < J; ++j) {
    const double s = scale_of(p, static_cast<std::size_t>(j));
    const std::int64_t k = key_of(p, j);
    row.clear();
    for (int r = 0; r < R; ++r) {
      lp.set_objective(yvar(j, r),
                       p.rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] / s);
      labels.var[static_cast<std::size_t>(yvar(j, r))] = k * R + r;
      row.push_back({yvar(j, r), 1.0});
    }
    lp.add_constraint_sparse(row, Relation::kLessEqual, 1.0);
    labels.row.push_back(k);
  }
  for (int r = 0; r < R; ++r) {
    row.clear();
    for (int j = 0; j < J; ++j) {
      row.push_back({yvar(j, r), p.demand[static_cast<std::size_t>(j)]});
    }
    lp.add_constraint_sparse(row, Relation::kLessEqual, p.cap[static_cast<std::size_t>(r)]);
    labels.row.push_back(-(r + 1));
  }
  const LpSolution lsol =
      solve_lp(lp, labels, max_iterations, ctx != nullptr ? &ctx->max_sum : nullptr);
  if (lsol.status != LpStatus::kOptimal) return sol;
  sol.feasible = true;
  double min_norm = std::numeric_limits<double>::infinity();
  for (int j = 0; j < J; ++j) {
    double norm = 0.0;
    for (int r = 0; r < R; ++r) {
      const double y = std::max(0.0, lsol.x[static_cast<std::size_t>(yvar(j, r))]);
      sol.y[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] = y;
      norm += y * p.rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] /
              scale_of(p, static_cast<std::size_t>(j));
    }
    min_norm = std::min(min_norm, norm);
  }
  sol.min_normalized_throughput = std::isfinite(min_norm) ? min_norm : 0.0;
  return sol;
}

MaxMinSolution solve_max_sum_greedy(const MaxMinProblem& p) {
  const std::size_t J = p.rate.size();
  const std::size_t R = p.cap.size();
  MaxMinSolution sol;
  sol.feasible = true;
  sol.y.assign(J, std::vector<double>(R, 0.0));
  if (J == 0) return sol;

  // Value density of one time-unit of (j, r): normalized rate per device.
  struct Cell {
    std::size_t j, r;
    double density;
  };
  std::vector<Cell> cells;
  for (std::size_t j = 0; j < J; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      if (p.rate[j][r] > 0.0) {
        cells.push_back({j, r, p.rate[j][r] / (scale_of(p, j) * p.demand[j])});
      }
    }
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.density != b.density) return a.density > b.density;
    return a.j != b.j ? a.j < b.j : a.r < b.r;
  });

  std::vector<double> cap = p.cap;
  std::vector<double> budget(J, 1.0);
  for (const Cell& c : cells) {
    if (budget[c.j] <= 1e-12 || cap[c.r] <= 1e-12) continue;
    const double y = std::min(budget[c.j], cap[c.r] / p.demand[c.j]);
    sol.y[c.j][c.r] += y;
    budget[c.j] -= y;
    cap[c.r] -= y * p.demand[c.j];
  }
  double min_norm = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < J; ++j) {
    double norm = 0.0;
    for (std::size_t r = 0; r < R; ++r) norm += sol.y[j][r] * p.rate[j][r] / scale_of(p, j);
    min_norm = std::min(min_norm, norm);
  }
  sol.min_normalized_throughput = std::isfinite(min_norm) ? min_norm : 0.0;
  return sol;
}

}  // namespace

MaxMinSolution solve_max_sum(const MaxMinProblem& p, const MaxMinOptions& opts,
                             MaxMinContext* ctx) {
  check(p);
  if (static_cast<int>(p.rate.size()) <= opts.lp_job_threshold) {
    MaxMinSolution sol = solve_max_sum_lp(p, opts.max_lp_iterations, ctx);
    if (sol.feasible) return sol;
  }
  return solve_max_sum_greedy(p);
}

}  // namespace hadar::solver
