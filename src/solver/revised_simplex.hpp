// Sparse revised simplex with warm-start contexts.
//
// The only LP engine in the library. A dense tableau would update an m x n
// matrix per pivot; the Gavel allocation LPs are ~95% zeros, so this engine
// keeps the constraint matrix in sparse column form and maintains only an explicit basis inverse B^-1
// (m x m), updated per pivot with the product-form (eta) transformation and
// refactorized periodically for numerical health.
//
// Warm start: Gavel re-solves after a single arrival/completion, so
// consecutive LPs share almost all of their basis. `LpContext` remembers the
// optimal basis of the previous solve *by caller-supplied labels* (stable
// across re-builds of the LpProblem), crashes a starting basis from the
// still-present labels, and skips phase 1 entirely when that basis is
// primal-feasible. Any failure — missing labels, singular crash basis,
// infeasible basic point — falls back to the cold two-phase path.
//
// Determinism: warm and cold starts can reach different (equally optimal)
// vertices on degenerate LPs, which would make warm-start observable in
// scheduler output. Two mechanisms converge them:
//   1. a phase-3 canonicalization at optimality minimizes a fixed generic
//      secondary objective over the optimal face (pivots restricted to
//      columns with ~0 phase-2 reduced cost, Bland's rule, so it
//      terminates); with hash-generic weights the face has a unique
//      secondary minimizer, so every pivot path converges to one POINT;
//   2. the solution is extracted from a canonical basis rebuilt from that
//      point's support (positive columns forced in, completed greedily by
//      ascending column index) via a fresh deterministic LU solve, making x
//      a pure function of the LP rather than of the pivot path.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/lp.hpp"

namespace hadar::solver {

/// Stable identities for warm-starting across LpProblem rebuilds. The caller
/// assigns one label per variable and one per constraint row; a label that
/// appears in consecutive problems is treated as "the same" variable/row.
/// Labels must be unique within each vector (variables and rows may reuse
/// the same numeric space — they are matched separately).
struct LpLabels {
  std::vector<std::int64_t> var;  ///< one per variable
  std::vector<std::int64_t> row;  ///< one per constraint
};

/// Counters for tests/bench introspection; cumulative over an LpContext.
struct RevisedStats {
  std::uint64_t cold_solves = 0;     ///< solves that ran the full two-phase path
  std::uint64_t warm_attempts = 0;   ///< solves that had a saved basis to try
  std::uint64_t warm_hits = 0;       ///< warm basis accepted; phase 1 skipped
  std::uint64_t phase1_pivots = 0;
  std::uint64_t phase2_pivots = 0;
  std::uint64_t canonical_pivots = 0;
  std::uint64_t refactorizations = 0;
};

/// Reusable warm-start state. Not thread-safe; use one per solver stream.
class LpContext {
 public:
  /// Warm-capable solve. Tries the basis remembered from the previous
  /// successful solve (matched through `labels`); falls back to a cold
  /// two-phase solve when the basis is unusable. On kOptimal the final basis
  /// is saved for the next call; any other status clears the context.
  LpSolution solve(const LpProblem& lp, const LpLabels& labels,
                   const SimplexOptions& opts = {});

  /// Forgets the saved basis (stats are kept).
  void clear();

  bool has_basis() const { return has_basis_; }
  const RevisedStats& stats() const { return stats_; }

 private:
  bool has_basis_ = false;
  std::vector<std::int64_t> basic_vars_;  ///< sorted labels of basic variables
  std::vector<std::int64_t> basic_rows_;  ///< sorted labels of rows whose slack is basic
  RevisedStats stats_;
};

/// One-shot cold solve with the revised engine (no context, no warm start).
/// Produces the same canonical solution the warm path converges to.
LpSolution solve_revised(const LpProblem& lp, const SimplexOptions& opts = {});

}  // namespace hadar::solver
