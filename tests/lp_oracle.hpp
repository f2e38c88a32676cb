// Dense two-phase tableau simplex, kept only as the equivalence oracle for
// the production revised engine (solver/revised_simplex.hpp). It shares no
// code with that engine beyond the LpProblem front end, so agreement between
// the two on status and objective is independent evidence of correctness.
#pragma once

#include "solver/lp.hpp"

namespace hadar::test {

/// Solves `lp` with a full m x n tableau. Deterministic (Bland's rule).
solver::LpSolution solve_dense(const solver::LpProblem& lp,
                               const solver::SimplexOptions& opts = {});

}  // namespace hadar::test
