#include "solver/lp.hpp"

#include <algorithm>
#include <stdexcept>

namespace hadar::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

LpProblem::LpProblem(int num_vars) : num_vars_(num_vars) {
  if (num_vars <= 0) throw std::invalid_argument("LpProblem: num_vars <= 0");
  c_.assign(static_cast<std::size_t>(num_vars), 0.0);
}

void LpProblem::set_objective(int v, double coeff) {
  if (v < 0 || v >= num_vars_) throw std::out_of_range("LpProblem::set_objective");
  c_[static_cast<std::size_t>(v)] = coeff;
}

void LpProblem::add_constraint(const std::vector<double>& coeffs, Relation rel, double rhs) {
  if (static_cast<int>(coeffs.size()) > num_vars_) {
    throw std::invalid_argument("LpProblem::add_constraint: too many coefficients");
  }
  Row row;
  row.rel = rel;
  row.b = rhs;
  for (int j = 0; j < static_cast<int>(coeffs.size()); ++j) {
    const double v = coeffs[static_cast<std::size_t>(j)];
    if (v != 0.0) row.a.push_back(SparseEntry{j, v});
  }
  rows_.push_back(std::move(row));
}

void LpProblem::add_constraint_sparse(std::vector<SparseEntry> entries, Relation rel,
                                      double rhs) {
  int prev = -1;
  for (const SparseEntry& e : entries) {
    if (e.index < 0 || e.index >= num_vars_) {
      throw std::invalid_argument("LpProblem::add_constraint_sparse: index out of range");
    }
    if (e.index <= prev) {
      throw std::invalid_argument(
          "LpProblem::add_constraint_sparse: indices must be strictly increasing");
    }
    prev = e.index;
  }
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const SparseEntry& e) { return e.value == 0.0; }),
                entries.end());
  rows_.push_back(Row{std::move(entries), rel, rhs});
}

double LpProblem::Row::coeff(int j) const {
  const auto it = std::lower_bound(
      a.begin(), a.end(), j,
      [](const SparseEntry& e, int idx) { return e.index < idx; });
  return (it != a.end() && it->index == j) ? it->value : 0.0;
}

}  // namespace hadar::solver
