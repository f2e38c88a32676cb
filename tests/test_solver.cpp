// Unit tests for the LP solver (the production revised simplex, each
// textbook instance cross-checked against the dense test oracle) and the
// max-min allocation solvers, including LP-vs-heuristic agreement checks.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "lp_oracle.hpp"
#include "solver/lp.hpp"
#include "solver/maxmin.hpp"
#include "solver/revised_simplex.hpp"

namespace hadar::solver {
namespace {

// ------------------------------------------------------------------ LP ----

// Solves with the production engine and requires the dense oracle to agree
// on status and (when optimal) objective.
LpSolution solve(const LpProblem& lp) {
  const LpSolution sol = solve_revised(lp);
  const LpSolution oracle = test::solve_dense(lp);
  EXPECT_EQ(sol.status, oracle.status);
  if (sol.status == LpStatus::kOptimal && oracle.status == LpStatus::kOptimal) {
    EXPECT_NEAR(sol.objective, oracle.objective, 1e-7);
  }
  return sol;
}

TEST(Lp, SolvesTextbookMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
  LpProblem lp(2);
  lp.set_objective(0, 3.0);
  lp.set_objective(1, 5.0);
  lp.add_constraint({1.0, 0.0}, Relation::kLessEqual, 4.0);
  lp.add_constraint({0.0, 2.0}, Relation::kLessEqual, 12.0);
  lp.add_constraint({3.0, 2.0}, Relation::kLessEqual, 18.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-7);
}

TEST(Lp, HandlesGreaterEqualWithTwoPhases) {
  // max -x - y  s.t. x + y >= 4, x <= 10, y <= 10  => obj = -4.
  LpProblem lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 4.0);
  lp.add_constraint({1.0, 0.0}, Relation::kLessEqual, 10.0);
  lp.add_constraint({0.0, 1.0}, Relation::kLessEqual, 10.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-7);
}

TEST(Lp, HandlesEqualityConstraints) {
  // max x + 2y  s.t. x + y = 3, x <= 2 => x=0..? best y=3, x=0 -> obj 6.
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.set_objective(1, 2.0);
  lp.add_constraint({1.0, 1.0}, Relation::kEqual, 3.0);
  lp.add_constraint({1.0, 0.0}, Relation::kLessEqual, 2.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 6.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 3.0, 1e-7);
}

TEST(Lp, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot hold.
  LpProblem lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  lp.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(lp).status, LpStatus::kInfeasible);
}

TEST(Lp, DetectsUnbounded) {
  LpProblem lp(1);
  lp.set_objective(0, 1.0);  // max x with no upper bound
  lp.add_constraint({-1.0}, Relation::kLessEqual, 0.0);
  EXPECT_EQ(solve(lp).status, LpStatus::kUnbounded);
}

TEST(Lp, NegativeRhsIsNormalized) {
  // max -x s.t. -x <= -2  (i.e. x >= 2)  => x = 2.
  LpProblem lp(1);
  lp.set_objective(0, -1.0);
  lp.add_constraint({-1.0}, Relation::kLessEqual, -2.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-7);
}

TEST(Lp, DegenerateProblemTerminates) {
  // Classic cycling-prone instance; Bland's rule must terminate.
  LpProblem lp(4);
  lp.set_objective(0, 0.75);
  lp.set_objective(1, -150.0);
  lp.set_objective(2, 0.02);
  lp.set_objective(3, -6.0);
  lp.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0);
  lp.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0);
  lp.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);
  const auto sol = solve(lp);
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.05, 1e-6);
}

TEST(Lp, ShortCoefficientVectorsArePadded) {
  LpProblem lp(3);
  lp.set_objective(2, 1.0);
  lp.add_constraint({0.0, 0.0, 1.0}, Relation::kLessEqual, 5.0);
  lp.add_constraint({1.0}, Relation::kLessEqual, 1.0);  // padded with zeros
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
}

TEST(Lp, RejectsBadConstruction) {
  EXPECT_THROW(LpProblem(0), std::invalid_argument);
  LpProblem lp(1);
  EXPECT_THROW(lp.set_objective(2, 1.0), std::out_of_range);
  EXPECT_THROW(lp.add_constraint({1.0, 2.0}, Relation::kLessEqual, 1.0),
               std::invalid_argument);
}

// -------------------------------------------------------------- MaxMin ----

MaxMinProblem two_job_problem() {
  // Two jobs, two types. Job 0 is fast on type 0 only; job 1 fast on both.
  MaxMinProblem p;
  p.rate = {{10.0, 1.0}, {8.0, 8.0}};
  p.demand = {1.0, 1.0};
  p.cap = {1.0, 1.0};
  p.scale = {10.0, 8.0};
  return p;
}

TEST(MaxMin, LpSolutionIsFeasibleAndFair) {
  const auto p = two_job_problem();
  const auto sol = solve_max_min_lp(p);
  ASSERT_TRUE(sol.feasible);
  // Both jobs can reach normalized throughput 1 (job0 on type0, job1 on
  // type1), so the optimum is 1.
  EXPECT_NEAR(sol.min_normalized_throughput, 1.0, 1e-6);
  // Constraint check.
  for (std::size_t r = 0; r < 2; ++r) {
    double used = 0.0;
    for (std::size_t j = 0; j < 2; ++j) used += sol.y[j][r] * p.demand[j];
    EXPECT_LE(used, p.cap[r] + 1e-6);
  }
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_LE(sol.y[j][0] + sol.y[j][1], 1.0 + 1e-6);
  }
}

TEST(MaxMin, FillingMatchesLpOnEasyInstance) {
  const auto p = two_job_problem();
  const auto lp = solve_max_min_lp(p);
  const auto heur = solve_max_min_filling(p);
  ASSERT_TRUE(lp.feasible);
  ASSERT_TRUE(heur.feasible);
  EXPECT_NEAR(heur.min_normalized_throughput, lp.min_normalized_throughput, 0.05);
}

TEST(MaxMin, ScarcityIsShared) {
  // Two identical jobs compete for one device of one type.
  MaxMinProblem p;
  p.rate = {{4.0}, {4.0}};
  p.demand = {1.0, 1.0};
  p.cap = {1.0};
  p.scale = {4.0, 4.0};
  const auto sol = solve_max_min_lp(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_NEAR(sol.min_normalized_throughput, 0.5, 1e-6);
  EXPECT_NEAR(sol.y[0][0], 0.5, 1e-6);
  EXPECT_NEAR(sol.y[1][0], 0.5, 1e-6);
}

TEST(MaxMin, JobWithNoUsableTypeYieldsZero) {
  MaxMinProblem p;
  p.rate = {{0.0}, {5.0}};
  p.demand = {1.0, 1.0};
  p.cap = {1.0};
  const auto lp = solve_max_min_lp(p);
  ASSERT_TRUE(lp.feasible);
  EXPECT_NEAR(lp.min_normalized_throughput, 0.0, 1e-9);
  const auto heur = solve_max_min_filling(p);
  EXPECT_NEAR(heur.min_normalized_throughput, 0.0, 1e-9);
}

TEST(MaxMin, EmptyProblemIsFeasible) {
  MaxMinProblem p;
  p.cap = {1.0, 2.0};
  EXPECT_TRUE(solve_max_min_lp(p).feasible);
  EXPECT_TRUE(solve_max_min_filling(p).feasible);
}

TEST(MaxMin, DispatchUsesHeuristicAboveThreshold) {
  common::Rng rng(5);
  MaxMinProblem p;
  const int J = 30, R = 3;
  for (int j = 0; j < J; ++j) {
    std::vector<double> row;
    for (int r = 0; r < R; ++r) row.push_back(rng.uniform(1.0, 10.0));
    p.rate.push_back(row);
    p.demand.push_back(static_cast<double>(rng.uniform_int(1, 4)));
    p.scale.push_back(*std::max_element(row.begin(), row.end()));
  }
  p.cap = {8.0, 8.0, 8.0};

  MaxMinOptions below;
  below.lp_job_threshold = 100;  // exact LP
  MaxMinOptions above;
  above.lp_job_threshold = 5;  // heuristic
  const auto exact = solve_max_min(p, below);
  const auto heur = solve_max_min(p, above);
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(heur.feasible);
  // Heuristic within 25% of the optimum on random instances.
  EXPECT_GE(heur.min_normalized_throughput, 0.75 * exact.min_normalized_throughput);
  EXPECT_LE(heur.min_normalized_throughput, exact.min_normalized_throughput + 1e-6);
}

TEST(MaxMin, FillingNeverViolatesConstraints) {
  common::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    MaxMinProblem p;
    const int J = static_cast<int>(rng.uniform_int(1, 40));
    const int R = static_cast<int>(rng.uniform_int(1, 4));
    for (int j = 0; j < J; ++j) {
      std::vector<double> row;
      for (int r = 0; r < R; ++r) {
        row.push_back(rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.5, 20.0));
      }
      p.rate.push_back(row);
      p.demand.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    }
    for (int r = 0; r < R; ++r) p.cap.push_back(static_cast<double>(rng.uniform_int(1, 30)));
    const auto sol = solve_max_min_filling(p);
    ASSERT_TRUE(sol.feasible);
    for (int r = 0; r < R; ++r) {
      double used = 0.0;
      for (int j = 0; j < J; ++j) used += sol.y[j][r] * p.demand[j];
      EXPECT_LE(used, p.cap[r] + 1e-6) << "trial " << trial;
    }
    for (int j = 0; j < J; ++j) {
      double total = 0.0;
      for (int r = 0; r < R; ++r) {
        EXPECT_GE(sol.y[j][r], -1e-12);
        total += sol.y[j][r];
      }
      EXPECT_LE(total, 1.0 + 1e-6);
    }
  }
}

TEST(MaxSum, BeatsOrMatchesMaxMinOnTotal) {
  common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    MaxMinProblem p;
    const int J = static_cast<int>(rng.uniform_int(2, 20));
    for (int j = 0; j < J; ++j) {
      std::vector<double> row = {rng.uniform(0.5, 10.0), rng.uniform(0.5, 10.0)};
      p.scale.push_back(*std::max_element(row.begin(), row.end()));
      p.rate.push_back(std::move(row));
      p.demand.push_back(static_cast<double>(rng.uniform_int(1, 4)));
    }
    p.cap = {6.0, 6.0};
    const auto fair = solve_max_min_lp(p);
    const auto sum = solve_max_sum(p);
    ASSERT_TRUE(fair.feasible);
    ASSERT_TRUE(sum.feasible);
    auto total = [&](const MaxMinSolution& s) {
      double t = 0.0;
      for (int j = 0; j < J; ++j) {
        for (std::size_t r = 0; r < 2; ++r) {
          t += s.y[static_cast<std::size_t>(j)][r] * p.rate[static_cast<std::size_t>(j)][r] /
               p.scale[static_cast<std::size_t>(j)];
        }
      }
      return t;
    };
    EXPECT_GE(total(sum), total(fair) - 1e-6) << "trial " << trial;
  }
}

TEST(MaxSum, RespectsConstraints) {
  MaxMinProblem p;
  p.rate = {{10.0, 1.0}, {8.0, 8.0}, {2.0, 6.0}};
  p.demand = {2.0, 1.0, 3.0};
  p.cap = {3.0, 3.0};
  p.scale = {10.0, 8.0, 6.0};
  for (const auto& sol : {solve_max_sum(p), [&] {
         MaxMinOptions o;
         o.lp_job_threshold = 0;  // force greedy
         return solve_max_sum(p, o);
       }()}) {
    ASSERT_TRUE(sol.feasible);
    for (std::size_t r = 0; r < 2; ++r) {
      double used = 0.0;
      for (std::size_t j = 0; j < 3; ++j) used += sol.y[j][r] * p.demand[j];
      EXPECT_LE(used, p.cap[r] + 1e-6);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_LE(sol.y[j][0] + sol.y[j][1], 1.0 + 1e-6);
    }
  }
}

TEST(MaxSum, EmptyProblemFeasible) {
  MaxMinProblem p;
  p.cap = {1.0};
  EXPECT_TRUE(solve_max_sum(p).feasible);
}

TEST(MaxMin, RejectsMalformedInput) {
  MaxMinProblem p;
  p.rate = {{1.0}};
  p.demand = {1.0, 2.0};  // arity mismatch
  p.cap = {1.0};
  EXPECT_THROW(solve_max_min_lp(p), std::invalid_argument);
  p.demand = {0.0};  // non-positive demand
  EXPECT_THROW(solve_max_min_filling(p), std::invalid_argument);
}

}  // namespace
}  // namespace hadar::solver
