#include "lp_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace hadar::test {

using solver::LpProblem;
using solver::LpSolution;
using solver::LpStatus;
using solver::Relation;
using solver::SimplexOptions;
using solver::SparseEntry;

namespace {

// Dense simplex tableau over the standard form
//   max c^T x,  A x = b,  x >= 0,  b >= 0
// with `m` rows and `n` columns (structural + slack/surplus + artificial).
class Tableau {
 public:
  Tableau(int m, int n)
      : m_(m),
        n_(n),
        b_(static_cast<std::size_t>(m), 0.0),
        cost_(static_cast<std::size_t>(n), 0.0),
        basis_(static_cast<std::size_t>(m), -1),
        a_(static_cast<std::size_t>(m) * static_cast<std::size_t>(n), 0.0) {}

  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }
  double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }

  int m_;
  int n_;
  std::vector<double> b_;
  std::vector<double> cost_;   // objective being MAXIMIZED over current columns
  std::vector<int> basis_;     // basis_[row] = column basic in that row

  // Reduced cost of column j given the current basis: c_j - c_B^T B^-1 A_j.
  // We keep the tableau fully reduced, so the reduced costs live in cost_
  // after each pivot (classic full-tableau simplex).
  void pivot(int row, int col, double eps) {
    const double p = at(row, col);
    if (std::fabs(p) < eps) throw std::runtime_error("simplex: degenerate pivot");
    const double inv = 1.0 / p;
    for (int j = 0; j < n_; ++j) at(row, j) *= inv;
    b_[static_cast<std::size_t>(row)] *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double f = at(i, col);
      if (f == 0.0) continue;
      for (int j = 0; j < n_; ++j) at(i, j) -= f * at(row, j);
      b_[static_cast<std::size_t>(i)] -= f * b_[static_cast<std::size_t>(row)];
    }
    const double f = cost_[static_cast<std::size_t>(col)];
    if (f != 0.0) {
      for (int j = 0; j < n_; ++j) cost_[static_cast<std::size_t>(j)] -= f * at(row, j);
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  // Runs simplex iterations (Bland's rule). Returns kOptimal / kUnbounded /
  // kIterationLimit. `allowed(j)` filters enterable columns.
  template <typename Allowed>
  LpStatus iterate(const SimplexOptions& opts, int& iters_left, Allowed allowed) {
    while (iters_left-- > 0) {
      // Bland: smallest-index column with positive reduced cost (maximize).
      int col = -1;
      for (int j = 0; j < n_; ++j) {
        if (!allowed(j)) continue;
        if (cost_[static_cast<std::size_t>(j)] > opts.eps) {
          col = j;
          break;
        }
      }
      if (col < 0) return LpStatus::kOptimal;

      // Ratio test; Bland tie-break on the leaving variable's column index.
      int row = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double aij = at(i, col);
        if (aij > opts.eps) {
          const double ratio = b_[static_cast<std::size_t>(i)] / aij;
          if (row < 0 || ratio < best_ratio - opts.eps ||
              (ratio < best_ratio + opts.eps &&
               basis_[static_cast<std::size_t>(i)] < basis_[static_cast<std::size_t>(row)])) {
            row = i;
            best_ratio = ratio;
          }
        }
      }
      if (row < 0) return LpStatus::kUnbounded;
      pivot(row, col, opts.eps);
    }
    return LpStatus::kIterationLimit;
  }

 private:
  std::vector<double> a_;
};

// Flips the relation of a row whose right-hand side is negated to make b >= 0.
Relation flipped(Relation rel) {
  if (rel == Relation::kLessEqual) return Relation::kGreaterEqual;
  if (rel == Relation::kGreaterEqual) return Relation::kLessEqual;
  return Relation::kEqual;
}

}  // namespace

LpSolution solve_dense(const LpProblem& lp, const SimplexOptions& opts) {
  const int n_struct = lp.num_vars();
  const int m = lp.num_constraints();

  // Count auxiliary columns.
  int n_slack = 0;
  int n_artificial = 0;
  for (const auto& row : lp.rows()) {
    const Relation rel = row.b < 0.0 ? flipped(row.rel) : row.rel;
    if (rel != Relation::kEqual) ++n_slack;
    if (rel != Relation::kLessEqual) ++n_artificial;
  }

  const int n = n_struct + n_slack + n_artificial;
  Tableau t(m, n);

  int slack_next = n_struct;
  const int artificial_first = n_struct + n_slack;
  int art_next = artificial_first;

  for (int i = 0; i < m; ++i) {
    const auto& row = lp.rows()[static_cast<std::size_t>(i)];
    const bool flip = row.b < 0.0;
    const double sign = flip ? -1.0 : 1.0;
    const Relation rel = flip ? flipped(row.rel) : row.rel;
    for (const SparseEntry& e : row.a) t.at(i, e.index) = sign * e.value;
    t.b_[static_cast<std::size_t>(i)] = sign * row.b;

    if (rel == Relation::kLessEqual) {
      t.at(i, slack_next) = 1.0;
      t.basis_[static_cast<std::size_t>(i)] = slack_next;
      ++slack_next;
    } else if (rel == Relation::kGreaterEqual) {
      t.at(i, slack_next) = -1.0;  // surplus
      ++slack_next;
      t.at(i, art_next) = 1.0;
      t.basis_[static_cast<std::size_t>(i)] = art_next;
      ++art_next;
    } else {
      t.at(i, art_next) = 1.0;
      t.basis_[static_cast<std::size_t>(i)] = art_next;
      ++art_next;
    }
  }

  LpSolution sol;
  int iters_left = opts.max_iterations;

  // Phase 1: maximize -(sum of artificials), i.e. drive them to zero.
  if (n_artificial > 0) {
    for (int j = artificial_first; j < n; ++j) t.cost_[static_cast<std::size_t>(j)] = -1.0;
    // Price out basic artificials so reduced costs start consistent.
    for (int i = 0; i < m; ++i) {
      if (t.basis_[static_cast<std::size_t>(i)] >= artificial_first) {
        for (int j = 0; j < n; ++j) t.cost_[static_cast<std::size_t>(j)] += t.at(i, j);
      }
    }
    const LpStatus st = t.iterate(opts, iters_left, [](int) { return true; });
    if (st == LpStatus::kIterationLimit) {
      sol.status = st;
      return sol;
    }
    // Feasible iff all artificial variables are zero.
    double art_sum = 0.0;
    for (int i = 0; i < m; ++i) {
      if (t.basis_[static_cast<std::size_t>(i)] >= artificial_first) {
        art_sum += t.b_[static_cast<std::size_t>(i)];
      }
    }
    if (art_sum > 1e-7) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
    // Pivot any remaining (zero-valued) artificials out of the basis.
    for (int i = 0; i < m; ++i) {
      if (t.basis_[static_cast<std::size_t>(i)] < artificial_first) continue;
      int col = -1;
      for (int j = 0; j < artificial_first; ++j) {
        if (std::fabs(t.at(i, j)) > opts.eps) {
          col = j;
          break;
        }
      }
      // No such column: the row is all-zero over structural+slack columns (a
      // redundant constraint); the zero artificial stays basic at 0.
      if (col >= 0) t.pivot(i, col, opts.eps);
    }
  }

  // Phase 2: real objective over structural columns; artificials barred.
  std::fill(t.cost_.begin(), t.cost_.end(), 0.0);
  for (int j = 0; j < n_struct; ++j) {
    t.cost_[static_cast<std::size_t>(j)] = lp.objective()[static_cast<std::size_t>(j)];
  }
  // Re-price the basic columns so the reduced costs match the new objective.
  for (int i = 0; i < m; ++i) {
    const int bj = t.basis_[static_cast<std::size_t>(i)];
    const double cb = t.cost_[static_cast<std::size_t>(bj)];
    if (cb != 0.0) {
      for (int j = 0; j < n; ++j) t.cost_[static_cast<std::size_t>(j)] -= cb * t.at(i, j);
    }
  }

  const LpStatus st = t.iterate(opts, iters_left,
                                [artificial_first](int j) { return j < artificial_first; });
  if (st != LpStatus::kOptimal) {
    sol.status = st;
    return sol;
  }

  sol.status = LpStatus::kOptimal;
  sol.x.assign(static_cast<std::size_t>(n_struct), 0.0);
  for (int i = 0; i < m; ++i) {
    const int bj = t.basis_[static_cast<std::size_t>(i)];
    if (bj < n_struct) sol.x[static_cast<std::size_t>(bj)] = t.b_[static_cast<std::size_t>(i)];
  }
  // The objective is recomputed from x for numerical cleanliness.
  for (int j = 0; j < n_struct; ++j) {
    const auto k = static_cast<std::size_t>(j);
    sol.objective += lp.objective()[k] * sol.x[k];
  }
  return sol;
}

}  // namespace hadar::test
