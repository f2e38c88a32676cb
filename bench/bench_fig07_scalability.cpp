// Fig. 7 — scalability: wall-clock time for one scheduling decision as the
// number of active jobs grows from 32 to 2048, with the cluster scaled
// alongside (the paper grows the cluster with the jobs). Compares Hadar's
// DP against Gavel's LP/priority allocation. Paper shape: comparable
// scaling, with even 2000-job rounds computed within the 7-minute round.
#include <benchmark/benchmark.h>

#include "baselines/gavel.hpp"
#include "common/thread_pool.hpp"
#include "core/hadar_scheduler.hpp"
#include "runner/scenarios.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace_gen.hpp"

using namespace hadar;

namespace {

struct Scenario {
  cluster::ClusterSpec spec;
  workload::Trace trace;
  sim::SchedulerContext ctx;
};

// Cluster scales with the job count: ~1 four-GPU node per 8 jobs per type.
Scenario make_scenario(int jobs) {
  Scenario s;
  const int nodes_per_type = std::max(1, jobs / 24);
  s.spec = cluster::ClusterSpec::scaled(nodes_per_type, 4);
  static const workload::ModelZoo zoo = workload::ModelZoo::paper_default();
  workload::TraceGenerator gen(&zoo, &s.spec.types());
  workload::TraceGenConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = 1234;
  s.trace = gen.generate(cfg);

  s.ctx.spec = &s.spec;
  s.ctx.round_length = 360.0;
  s.ctx.jobs_epoch = 1;  // one fixed job set on one fixed cluster
  s.ctx.cluster_epoch = 1;
  for (const auto& j : s.trace.jobs) {
    sim::JobView v;
    v.spec = &j;
    v.throughput = j.throughput;
    v.rounds_on_type.assign(static_cast<std::size_t>(s.spec.num_types()), 0);
    s.ctx.jobs.push_back(std::move(v));
  }
  return s;
}

void BM_HadarDecision(benchmark::State& state) {
  const auto s = make_scenario(static_cast<int>(state.range(0)));
  core::HadarScheduler sched;
  for (auto _ : state) {
    state.PauseTiming();
    sched.reset();
    state.ResumeTiming();
    benchmark::DoNotOptimize(sched.schedule(s.ctx));
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["gpus"] = static_cast<double>(s.spec.total_gpus());
}

void BM_GavelDecision(benchmark::State& state) {
  const auto s = make_scenario(static_cast<int>(state.range(0)));
  baselines::GavelScheduler sched;
  for (auto _ : state) {
    state.PauseTiming();
    sched.reset();  // force the allocation recompute (the expensive path)
    state.ResumeTiming();
    benchmark::DoNotOptimize(sched.schedule(s.ctx));
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["gpus"] = static_cast<double>(s.spec.total_gpus());
}

// End-to-end view of the same scalability story: the full four-way paper
// comparison (Hadar, Gavel, Tiresias, YARN-CS) as one runner::sweep, which
// fans the four independent simulations across the HADAR_THREADS pool.
void BM_FourWaySweep(benchmark::State& state) {
  const auto cfg = runner::paper_static(static_cast<int>(state.range(0)), 42);
  std::vector<runner::SweepCase> cases;
  for (const auto& sched : runner::kPaperSchedulers) {
    cases.push_back({"static", sched, cfg});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner::sweep(cases));
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["threads"] =
      static_cast<double>(common::ThreadPool::global().concurrency());
}

}  // namespace

BENCHMARK(BM_HadarDecision)->RangeMultiplier(4)->Range(32, 2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GavelDecision)->RangeMultiplier(4)->Range(32, 2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FourWaySweep)->RangeMultiplier(2)->Range(32, 128)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
