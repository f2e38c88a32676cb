// Equivalence suite for the sparse revised simplex engine: randomized
// Gavel-shaped LPs where the dense test oracle (lp_oracle.hpp) and the
// revised engine (cold and warm-started) must agree on status and objective
// to 1e-7, plus degenerate/cycling instances, infeasible-after-warm-start,
// general relation coverage, and the sparse-row construction API.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "lp_oracle.hpp"
#include "solver/lp.hpp"
#include "solver/maxmin.hpp"
#include "solver/revised_simplex.hpp"

namespace hadar::solver {
namespace {

constexpr double kTol = 1e-7;

// A Gavel max-min-shaped instance: variables [z, Y(j,r)...], one z-row and
// one time-row per job, one capacity row per type — all <=. `keys` names the
// jobs so warm-start tests can remove/add jobs between solves.
struct GavelInstance {
  std::vector<std::int64_t> keys;
  std::vector<std::vector<double>> rate;  // [job][type]
  std::vector<double> demand;
  std::vector<double> cap;

  int J() const { return static_cast<int>(keys.size()); }
  int R() const { return static_cast<int>(cap.size()); }

  // Builds the LP + warm labels exactly like solver::solve_max_min_lp does.
  void build(LpProblem& lp_out, LpLabels& labels) const {
    const int nv = 1 + J() * R();
    lp_out = LpProblem(nv);
    lp_out.set_objective(0, 1.0);
    labels.var.assign(static_cast<std::size_t>(nv), -1);
    labels.row.clear();
    for (int j = 0; j < J(); ++j) {
      std::vector<SparseEntry> row{{0, 1.0}};
      for (int r = 0; r < R(); ++r) {
        const int v = 1 + j * R() + r;
        labels.var[static_cast<std::size_t>(v)] = keys[static_cast<std::size_t>(j)] * R() + r;
        if (rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] != 0.0) {
          row.push_back({v, -rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]});
        }
      }
      lp_out.add_constraint_sparse(row, Relation::kLessEqual, 0.0);
      labels.row.push_back(2 * keys[static_cast<std::size_t>(j)]);
      row.clear();
      for (int r = 0; r < R(); ++r) row.push_back({1 + j * R() + r, 1.0});
      lp_out.add_constraint_sparse(row, Relation::kLessEqual, 1.0);
      labels.row.push_back(2 * keys[static_cast<std::size_t>(j)] + 1);
    }
    for (int r = 0; r < R(); ++r) {
      std::vector<SparseEntry> row;
      for (int j = 0; j < J(); ++j) {
        row.push_back({1 + j * R() + r, demand[static_cast<std::size_t>(j)]});
      }
      lp_out.add_constraint_sparse(row, Relation::kLessEqual, p_cap(r));
      labels.row.push_back(-(r + 1));
    }
  }

  double p_cap(int r) const { return cap[static_cast<std::size_t>(r)]; }
};

GavelInstance random_instance(common::Rng& rng, int jobs, int types) {
  GavelInstance g;
  g.cap.resize(static_cast<std::size_t>(types));
  for (double& c : g.cap) c = static_cast<double>(rng.uniform_int(4, 32));
  for (int j = 0; j < jobs; ++j) {
    g.keys.push_back(j);
    g.demand.push_back(static_cast<double>(rng.uniform_int(1, 4)));
    std::vector<double> row(static_cast<std::size_t>(types), 0.0);
    for (double& x : row) {
      x = rng.uniform() < 0.15 ? 0.0 : rng.uniform(0.2, 4.0);  // some can't-run types
    }
    g.rate.push_back(std::move(row));
  }
  return g;
}

void remove_job(GavelInstance& g, int j) {
  g.keys.erase(g.keys.begin() + j);
  g.rate.erase(g.rate.begin() + j);
  g.demand.erase(g.demand.begin() + j);
}

// ------------------------------------------ dense oracle vs revised cold ----

TEST(RevisedSimplex, MatchesDenseOnRandomGavelShapedLps) {
  common::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto g = random_instance(rng, 2 + trial % 14, 2 + trial % 3);
    LpProblem lp(1);
    LpLabels labels;
    g.build(lp, labels);
    const auto dense = test::solve_dense(lp);
    const auto revised = solve_revised(lp);
    ASSERT_EQ(dense.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(revised.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(dense.objective, revised.objective, kTol) << "trial " << trial;
  }
}

TEST(RevisedSimplex, MatchesDenseOnGeneralRelations) {
  // max 2x + 3y  s.t. x + y <= 10, x >= 2, y = 3  => x=7, y=3, obj=23.
  LpProblem lp(2);
  lp.set_objective(0, 2.0);
  lp.set_objective(1, 3.0);
  lp.add_constraint({1.0, 1.0}, Relation::kLessEqual, 10.0);
  lp.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 2.0);
  lp.add_constraint({0.0, 1.0}, Relation::kEqual, 3.0);
  const auto dense = test::solve_dense(lp);
  const auto revised = solve_revised(lp);
  ASSERT_EQ(revised.status, LpStatus::kOptimal);
  EXPECT_NEAR(revised.objective, 23.0, kTol);
  EXPECT_NEAR(revised.x[0], 7.0, kTol);
  EXPECT_NEAR(revised.x[1], 3.0, kTol);
  EXPECT_NEAR(dense.objective, revised.objective, kTol);
}

TEST(RevisedSimplex, HandlesNegativeRhsAndSurplus) {
  // -x - y <= -4 (i.e. x + y >= 4), x <= 3, y <= 3; max x + 2y => (1,3)? No:
  // max at x=3,y=3 obj=9; the >= row is slack there.
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.set_objective(1, 2.0);
  lp.add_constraint({-1.0, -1.0}, Relation::kLessEqual, -4.0);
  lp.add_constraint({1.0, 0.0}, Relation::kLessEqual, 3.0);
  lp.add_constraint({0.0, 1.0}, Relation::kLessEqual, 3.0);
  const auto revised = solve_revised(lp);
  ASSERT_EQ(revised.status, LpStatus::kOptimal);
  EXPECT_NEAR(revised.objective, 9.0, kTol);
}

TEST(RevisedSimplex, DetectsInfeasible) {
  LpProblem lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  lp.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_revised(lp).status, LpStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnbounded) {
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.add_constraint({0.0, 1.0}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve_revised(lp).status, LpStatus::kUnbounded);
}

TEST(RevisedSimplex, SurvivesDegenerateCyclingInstance) {
  // Beale's classic cycling example; Bland's rule must terminate. Optimum
  // 0.05 at x = (1/25, 0, 1, 0).
  LpProblem lp(4);
  lp.set_objective(0, 0.75);
  lp.set_objective(1, -150.0);
  lp.set_objective(2, 0.02);
  lp.set_objective(3, -6.0);
  lp.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0);
  lp.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0);
  lp.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);
  const auto dense = test::solve_dense(lp);
  const auto revised = solve_revised(lp);
  ASSERT_EQ(revised.status, LpStatus::kOptimal);
  EXPECT_NEAR(revised.objective, 0.05, kTol);
  EXPECT_NEAR(dense.objective, revised.objective, kTol);
}

// --------------------------------------------------------- warm starts ----

TEST(RevisedSimplex, WarmStartAgreesWithColdAcrossEventStream) {
  common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = random_instance(rng, 12, 3);
    LpContext ctx;
    // Event stream: solve, drop a job, solve, drop another, solve...
    for (int event = 0; event < 6 && g.J() > 2; ++event) {
      LpProblem lp(1);
      LpLabels labels;
      g.build(lp, labels);
      const auto warm = ctx.solve(lp, labels);
      const auto cold = solve_revised(lp);
      const auto dense = test::solve_dense(lp);
      ASSERT_EQ(warm.status, LpStatus::kOptimal);
      ASSERT_EQ(cold.status, LpStatus::kOptimal);
      EXPECT_NEAR(warm.objective, dense.objective, kTol);
      EXPECT_NEAR(warm.objective, cold.objective, kTol);
      // Canonical extraction: warm and cold must agree on the SOLUTION
      // bitwise, not just the objective — this is what makes warm-start
      // invisible in scheduler output.
      ASSERT_EQ(warm.x.size(), cold.x.size());
      for (std::size_t i = 0; i < warm.x.size(); ++i) {
        EXPECT_EQ(warm.x[i], cold.x[i]) << "trial " << trial << " event " << event
                                        << " var " << i;
      }
      remove_job(g, static_cast<int>(rng.uniform_int(0, g.J() - 1)));
    }
    EXPECT_GT(ctx.stats().warm_hits, 0u);
  }
}

TEST(RevisedSimplex, WarmStartIsBitIdenticalOnSymmetricTwinJobs) {
  // Two identical jobs sharing one saturated capacity: the optimal face is
  // a segment (any split works), the classic case where warm and cold
  // endpoints diverge without canonicalization.
  GavelInstance g;
  g.keys = {0, 1, 2};
  g.rate = {{2.0, 1.0}, {2.0, 1.0}, {1.0, 3.0}};
  g.demand = {2.0, 2.0, 1.0};
  g.cap = {2.0, 2.0};

  LpProblem lp(1);
  LpLabels labels;
  g.build(lp, labels);
  const auto cold = solve_revised(lp);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  // Drive the context to a different pre-basis by solving a perturbed
  // instance first, then re-solve the original warm.
  LpContext ctx;
  auto perturbed = g;
  remove_job(perturbed, 1);
  LpProblem plp(1);
  LpLabels plabels;
  perturbed.build(plp, plabels);
  ASSERT_EQ(ctx.solve(plp, plabels).status, LpStatus::kOptimal);
  const auto warm = ctx.solve(lp, labels);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < warm.x.size(); ++i) {
    EXPECT_EQ(warm.x[i], cold.x[i]) << "var " << i;
  }
}

TEST(RevisedSimplex, InfeasibleAfterWarmStartFallsBackCleanly) {
  LpProblem lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0}, Relation::kLessEqual, 5.0);
  LpLabels labels;
  labels.var = {7};
  labels.row = {11};
  LpContext ctx;
  ASSERT_EQ(ctx.solve(lp, labels).status, LpStatus::kOptimal);
  ASSERT_TRUE(ctx.has_basis());

  // Same labels, now contradictory: the saved basis cannot be feasible.
  LpProblem bad(1);
  bad.set_objective(0, 1.0);
  bad.add_constraint({1.0}, Relation::kLessEqual, 5.0);
  LpLabels bad_labels;
  bad_labels.var = {7};
  bad_labels.row = {11, 13};
  bad.add_constraint({1.0}, Relation::kGreaterEqual, 9.0);
  EXPECT_EQ(ctx.solve(bad, bad_labels).status, LpStatus::kInfeasible);
  EXPECT_FALSE(ctx.has_basis());  // failed solves drop the basis

  // And the context recovers on the next feasible problem.
  EXPECT_EQ(ctx.solve(lp, labels).status, LpStatus::kOptimal);
  EXPECT_TRUE(ctx.has_basis());
}

TEST(RevisedSimplex, RejectsLabelArityMismatch) {
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0, 1.0}, Relation::kLessEqual, 1.0);
  LpContext ctx;
  LpLabels labels;
  labels.var = {0};  // should be 2
  labels.row = {0};
  EXPECT_THROW(ctx.solve(lp, labels), std::invalid_argument);
}

// ------------------------------------------------- sparse construction ----

TEST(SparseRows, AddConstraintCompressesAndPads) {
  LpProblem lp(4);
  lp.add_constraint({0.0, 2.0}, Relation::kLessEqual, 1.0);  // short row
  ASSERT_EQ(lp.num_constraints(), 1);
  const auto& row = lp.rows()[0];
  ASSERT_EQ(row.a.size(), 1u);  // zero dropped, tail implicit
  EXPECT_EQ(row.a[0].index, 1);
  EXPECT_DOUBLE_EQ(row.coeff(1), 2.0);
  EXPECT_DOUBLE_EQ(row.coeff(0), 0.0);
  EXPECT_DOUBLE_EQ(row.coeff(3), 0.0);
}

TEST(SparseRows, AddConstraintRejectsOverlongRows) {
  LpProblem lp(2);
  EXPECT_THROW(lp.add_constraint({1.0, 2.0, 3.0}, Relation::kLessEqual, 1.0),
               std::invalid_argument);
}

TEST(SparseRows, AddConstraintSparseValidates) {
  LpProblem lp(4);
  EXPECT_THROW(lp.add_constraint_sparse({{4, 1.0}}, Relation::kLessEqual, 1.0),
               std::invalid_argument);  // out of range
  EXPECT_THROW(lp.add_constraint_sparse({{-1, 1.0}}, Relation::kLessEqual, 1.0),
               std::invalid_argument);  // negative
  EXPECT_THROW(lp.add_constraint_sparse({{2, 1.0}, {1, 1.0}}, Relation::kLessEqual, 1.0),
               std::invalid_argument);  // not ascending
  EXPECT_THROW(lp.add_constraint_sparse({{1, 1.0}, {1, 2.0}}, Relation::kLessEqual, 1.0),
               std::invalid_argument);  // duplicate
  lp.add_constraint_sparse({{0, 1.0}, {2, 0.0}, {3, 4.0}}, Relation::kLessEqual, 2.0);
  ASSERT_EQ(lp.rows()[0].a.size(), 2u);  // explicit zero dropped
  EXPECT_DOUBLE_EQ(lp.rows()[0].coeff(3), 4.0);
}

TEST(SparseRows, SparseAndDenseConstructionSolveIdentically) {
  LpProblem dense_lp(3);
  dense_lp.set_objective(0, 1.0);
  dense_lp.set_objective(2, 2.0);
  dense_lp.add_constraint({1.0, 0.0, 1.0}, Relation::kLessEqual, 4.0);
  dense_lp.add_constraint({0.0, 1.0, 2.0}, Relation::kLessEqual, 6.0);

  LpProblem sparse_lp(3);
  sparse_lp.set_objective(0, 1.0);
  sparse_lp.set_objective(2, 2.0);
  sparse_lp.add_constraint_sparse({{0, 1.0}, {2, 1.0}}, Relation::kLessEqual, 4.0);
  sparse_lp.add_constraint_sparse({{1, 1.0}, {2, 2.0}}, Relation::kLessEqual, 6.0);

  const auto a = solve_revised(dense_lp);
  const auto b = solve_revised(sparse_lp);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
}

// ----------------------------------------------- max-min engine parity ----

// The max-sum LP of `g` as solver::solve_max_sum builds it (all scales 1):
// variables Y(j,r), one time row per job, one capacity row per type.
LpProblem max_sum_lp(const GavelInstance& g) {
  LpProblem lp(g.J() * g.R());
  for (int j = 0; j < g.J(); ++j) {
    std::vector<SparseEntry> row;
    for (int r = 0; r < g.R(); ++r) {
      lp.set_objective(j * g.R() + r,
                       g.rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]);
      row.push_back({j * g.R() + r, 1.0});
    }
    lp.add_constraint_sparse(row, Relation::kLessEqual, 1.0);
  }
  for (int r = 0; r < g.R(); ++r) {
    std::vector<SparseEntry> row;
    for (int j = 0; j < g.J(); ++j) {
      row.push_back({j * g.R() + r, g.demand[static_cast<std::size_t>(j)]});
    }
    lp.add_constraint_sparse(row, Relation::kLessEqual, g.p_cap(r));
  }
  return lp;
}

// The production MaxMinOptions-level solves must reach the dense oracle's
// optimum for both Gavel objectives.
TEST(MaxMinEngines, DenseAndRevisedAgree) {
  common::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = random_instance(rng, 3 + trial % 10, 2 + trial % 3);
    MaxMinProblem p;
    p.rate = g.rate;
    p.demand = g.demand;
    p.cap = g.cap;
    p.key = g.keys;

    const auto fair = solve_max_min(p, MaxMinOptions{});
    ASSERT_TRUE(fair.feasible);
    LpProblem lp(1);
    LpLabels labels;
    g.build(lp, labels);
    const auto dense_fair = test::solve_dense(lp);
    ASSERT_EQ(dense_fair.status, LpStatus::kOptimal);
    EXPECT_NEAR(fair.min_normalized_throughput, dense_fair.objective, kTol);

    const auto sum = solve_max_sum(p, MaxMinOptions{});
    ASSERT_TRUE(sum.feasible);
    const auto dense_sum = test::solve_dense(max_sum_lp(g));
    ASSERT_EQ(dense_sum.status, LpStatus::kOptimal);
    // max-sum reports the min normalized throughput of its solution, which
    // can differ between optimal vertices; compare the objective instead.
    double obj = 0.0;
    for (int j = 0; j < g.J(); ++j) {
      for (int r = 0; r < g.R(); ++r) {
        obj += sum.y[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] *
               g.rate[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
      }
    }
    EXPECT_NEAR(obj, dense_sum.objective, 1e-6);
  }
}

TEST(MaxMinEngines, WarmContextMatchesContextFreeSolves) {
  common::Rng rng(5);
  auto g = random_instance(rng, 10, 3);
  MaxMinContext ctx;
  MaxMinOptions opts;  // revised engine default
  for (int event = 0; event < 5 && g.J() > 1; ++event) {
    MaxMinProblem p;
    p.rate = g.rate;
    p.demand = g.demand;
    p.cap = g.cap;
    p.key = g.keys;
    const auto warm = solve_max_min(p, opts, &ctx);
    const auto cold = solve_max_min(p, opts, nullptr);
    ASSERT_EQ(warm.feasible, cold.feasible);
    ASSERT_EQ(warm.y.size(), cold.y.size());
    for (std::size_t j = 0; j < warm.y.size(); ++j) {
      for (std::size_t r = 0; r < warm.y[j].size(); ++r) {
        EXPECT_EQ(warm.y[j][r], cold.y[j][r]) << "event " << event;
      }
    }
    remove_job(g, static_cast<int>(rng.uniform_int(0, g.J() - 1)));
  }
  EXPECT_GT(ctx.max_min.stats().warm_hits, 0u);
}

}  // namespace
}  // namespace hadar::solver
