// Linear-programming front end for the sparse revised simplex engine
// (revised_simplex.hpp): the problem, its solution, and the solver options.
// Constraint rows are stored sparsely — the Gavel allocation LPs touch only
// R+1 of their 1+J*R variables per row — and are validated/compressed once
// at add time.
#pragma once

#include <vector>

namespace hadar::solver {

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(LpStatus s);

/// One nonzero coefficient of a constraint row.
struct SparseEntry {
  int index = 0;
  double value = 0.0;
};

/// max c^T x  s.t.  each constraint (a^T x REL b),  x >= 0.
class LpProblem {
 public:
  explicit LpProblem(int num_vars);

  int num_vars() const { return num_vars_; }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  /// Objective coefficient for variable `v` (maximization).
  void set_objective(int v, double coeff);

  /// Adds a constraint sum_i coeffs[i] * x_i REL rhs. `coeffs` may be shorter
  /// than num_vars (missing entries are 0); longer rows are rejected. Zeros
  /// are dropped at add time — rows are stored sparsely.
  void add_constraint(const std::vector<double>& coeffs, Relation rel, double rhs);

  /// Adds a constraint from explicit nonzeros. Entries must be sorted by
  /// strictly increasing index; out-of-range or duplicate indices throw
  /// std::invalid_argument. Zero-valued entries are dropped.
  void add_constraint_sparse(std::vector<SparseEntry> entries, Relation rel, double rhs);

  const std::vector<double>& objective() const { return c_; }

  struct Row {
    std::vector<SparseEntry> a;  ///< sorted by index, nonzero values only
    Relation rel;
    double b;

    /// Coefficient of variable `j` (binary search; tests/introspection).
    double coeff(int j) const;
  };
  const std::vector<Row>& rows() const { return rows_; }

 private:
  int num_vars_;
  std::vector<double> c_;
  std::vector<Row> rows_;
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
};

struct SimplexOptions {
  int max_iterations = 50000;
  double eps = 1e-9;
};

}  // namespace hadar::solver
