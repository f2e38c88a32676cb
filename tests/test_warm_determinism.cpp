// End-to-end determinism of the warm-started Gavel solver: the full fig04
// scenario under Gavel max-sum (and a smaller max-min run) must reproduce,
// bit for bit, the SimResult of solving every event's LP cold, and the same
// result at 1 vs. N threads. This is the contract that makes warm-starting a
// pure optimization — invisible in every metric. The cold results are
// recorded digests: they were captured from runs with warm starts switched
// off, which matched the warm runs exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "baselines/gavel.hpp"
#include "common/thread_pool.hpp"
#include "runner/scenarios.hpp"
#include "sim/simulator.hpp"

namespace hadar {
namespace {

using common::ScopedThreadCount;

// Exact equality over every schedule-derived field (scheduler_seconds is
// wall-clock and excluded).
void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_jct, b.avg_jct);
  EXPECT_EQ(a.median_jct, b.median_jct);
  EXPECT_EQ(a.min_jct, b.min_jct);
  EXPECT_EQ(a.max_jct, b.max_jct);
  EXPECT_EQ(a.p95_jct, b.p95_jct);
  EXPECT_EQ(a.avg_queueing_delay, b.avg_queueing_delay);
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
  EXPECT_EQ(a.avg_job_utilization, b.avg_job_utilization);
  EXPECT_EQ(a.avg_ftf, b.avg_ftf);
  EXPECT_EQ(a.max_ftf, b.max_ftf);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_reallocations, b.total_reallocations);
  EXPECT_EQ(a.total_preemptions, b.total_preemptions);
  EXPECT_EQ(a.realloc_round_fraction, b.realloc_round_fraction);
  EXPECT_EQ(a.scheduler_calls, b.scheduler_calls);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].first_start, b.jobs[i].first_start);
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
    EXPECT_EQ(a.jobs[i].gpu_seconds, b.jobs[i].gpu_seconds);
    EXPECT_EQ(a.jobs[i].compute_gpu_seconds, b.jobs[i].compute_gpu_seconds);
    EXPECT_EQ(a.jobs[i].rounds_run, b.jobs[i].rounds_run);
    EXPECT_EQ(a.jobs[i].preemptions, b.jobs[i].preemptions);
    EXPECT_EQ(a.jobs[i].reallocations, b.jobs[i].reallocations);
    EXPECT_EQ(a.jobs[i].ftf, b.jobs[i].ftf);
  }
}

// FNV-1a over the bit patterns of exactly the fields expect_identical
// compares, so a recorded digest pins the same contract.
std::uint64_t digest(const sim::SimResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const auto fold_f64 = [&fold](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    fold(u);
  };
  for (const double d : {r.makespan, r.avg_jct, r.median_jct, r.min_jct, r.max_jct, r.p95_jct,
                         r.avg_queueing_delay, r.gpu_utilization, r.avg_job_utilization,
                         r.avg_ftf, r.max_ftf, r.realloc_round_fraction}) {
    fold_f64(d);
  }
  fold(static_cast<std::uint64_t>(r.rounds));
  fold(static_cast<std::uint64_t>(r.total_reallocations));
  fold(static_cast<std::uint64_t>(r.total_preemptions));
  fold(static_cast<std::uint64_t>(r.scheduler_calls));
  fold(r.jobs.size());
  for (const auto& j : r.jobs) {
    fold(static_cast<std::uint64_t>(j.id));
    for (const double d : {j.arrival, j.first_start, j.finish, j.gpu_seconds,
                           j.compute_gpu_seconds, j.ftf}) {
      fold_f64(d);
    }
    fold(static_cast<std::uint64_t>(j.rounds_run));
    fold(static_cast<std::uint64_t>(j.preemptions));
    fold(static_cast<std::uint64_t>(j.reallocations));
  }
  return h;
}

sim::SimResult run_gavel(const runner::ExperimentConfig& cfg, baselines::GavelPolicy policy) {
  baselines::GavelConfig gc;
  gc.policy = policy;
  baselines::GavelScheduler sched(gc);
  sim::Simulator simulator(cfg.sim);
  return simulator.run(cfg.spec, cfg.trace, sched);
}

TEST(WarmDeterminism, Fig04GavelMaxSumWarmOnOffBitIdentical) {
  const auto cfg = runner::paper_static(240, 42);  // the fig04 scenario
  sim::SimResult warm_on, warm_on_mt;
  {
    ScopedThreadCount one(1);
    warm_on = run_gavel(cfg, baselines::GavelPolicy::kMaxSumThroughput);
  }
  {
    ScopedThreadCount four(4);
    warm_on_mt = run_gavel(cfg, baselines::GavelPolicy::kMaxSumThroughput);
  }
  EXPECT_EQ(digest(warm_on), 0x0d8126d28cb1d887ULL);  // cold-LP result, 2077 rounds
  expect_identical(warm_on, warm_on_mt);
  EXPECT_TRUE(warm_on.all_finished());
}

TEST(WarmDeterminism, GavelMaxMinWarmOnOffBitIdentical) {
  // Smaller instance so the max-min LP (not the filling heuristic) handles
  // every event.
  const auto cfg = runner::paper_static(64, 7);
  ScopedThreadCount one(1);
  EXPECT_EQ(digest(run_gavel(cfg, baselines::GavelPolicy::kMaxMinFairness)),
            0x6f75ef11b6e15537ULL);  // cold-LP result, 1157 rounds
}

}  // namespace
}  // namespace hadar
