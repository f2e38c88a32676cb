// Perf-regression harness: times the hot paths this repo's evaluation is
// wall-clock-bound by — FIND_ALLOC, DP_allocation, and the Gavel LP
// re-solve — plus an end-to-end fig07-style four-way comparison sweep, at
// HADAR_THREADS=1 and at the configured thread count. Emits BENCH_PR9.json
// (wall-clock, rounds/sec, speedup vs serial, LP re-solve cold vs warm,
// determinism checks) keeping the earlier micro/end_to_end keys so the perf
// trajectory stays comparable across PRs. PR 8 added the hot-path rows the
// SoA/undo-log/arena pass targets: thread-pool dispatch overhead and the
// per-branch DP bookkeeping cost (mark/apply/hash/rollback). PR 9 adds the
// staged-pipeline rows: the per-round scaffolding cost of the StagedScheduler
// driver (gated as staged_round_overhead, and required to stay under 2% of
// the real Hadar staged round) plus the per-stage
// admission/priority/allocation/placement/preemption split of that round.
//
// The run doubles as the perf-regression *gate*: the stable micro timings
// are calibration-normalized (see perf_gate.hpp) and compared against the
// checked-in bench/baseline.json, median-of-5, failing on a >25% slowdown
// when HADAR_PERF_GATE=1. It also measures the observability layer itself:
// the per-scope cost of a disabled HADAR_TRACE_SCOPE and the end-to-end
// delta of running a simulation with tracing enabled.
//
// Knobs: HADAR_BENCH_JOBS (end-to-end trace size, default 96),
// HADAR_THREADS (parallel lane count, default hardware concurrency),
// HADAR_PERF_BASELINE / HADAR_PERF_GATE / HADAR_PERF_INJECT_SLOWDOWN /
// HADAR_PERF_WRITE_BASELINE (see perf_gate.hpp).
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/gavel.hpp"
#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/dp_allocation.hpp"
#include "core/hadar_scheduler.hpp"
#include "obs/trace.hpp"
#include "perf_gate.hpp"
#include "pipeline/staged_scheduler.hpp"
#include "sim/simulator.hpp"
#include "solver/maxmin.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace_gen.hpp"

using namespace hadar;

namespace {

// Fig. 7-style decision scenario: cluster scaled with the queue.
struct DecisionScenario {
  cluster::ClusterSpec spec;
  workload::Trace trace;
  sim::SchedulerContext ctx;
};

DecisionScenario make_decision_scenario(int jobs) {
  DecisionScenario s;
  s.spec = cluster::ClusterSpec::scaled(std::max(1, jobs / 24), 4);
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

// Repeats `fn` until ~0.2 s of wall-clock accumulates; returns seconds/call.
template <typename Fn>
double time_per_call(Fn&& fn, int min_reps = 3) {
  fn();  // warm-up
  int reps = 0;
  common::WallTimer t;
  do {
    fn();
    ++reps;
  } while ((reps < min_reps || t.seconds() < 0.2) && reps < 10000);
  return t.seconds() / reps;
}

// Scheduler metrics must be bit-identical across thread counts (wall-clock
// fields excluded — they measure the host, not the schedule).
bool same_schedule(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.makespan != b.makespan ||
      a.avg_jct != b.avg_jct || a.median_jct != b.median_jct ||
      a.p95_jct != b.p95_jct || a.avg_ftf != b.avg_ftf ||
      a.rounds != b.rounds || a.total_reallocations != b.total_reallocations ||
      a.total_preemptions != b.total_preemptions) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].finish != b.jobs[i].finish ||
        a.jobs[i].first_start != b.jobs[i].first_start ||
        a.jobs[i].gpu_seconds != b.jobs[i].gpu_seconds) {
      return false;
    }
  }
  return true;
}

// The end-to-end workload: the paper four-way comparison over two seeds —
// 8 independent (scheduler x seed) simulations. Two seeds matter for the
// parallel story: the Hadar simulation dominates a single comparison, so a
// seed-replicated sweep is what lets a multi-core box overlap the heavy
// cells instead of serializing on one of them.
std::vector<runner::SweepCase> four_way_cases(int jobs) {
  std::vector<runner::SweepCase> cases;
  for (const std::uint64_t seed : {42ULL, 7ULL}) {
    const auto cfg = runner::paper_static(jobs, seed);
    for (const auto& sched : runner::kPaperSchedulers) {
      cases.push_back({"seed=" + std::to_string(seed), sched, cfg});
    }
  }
  return cases;
}

// ---- staged-pipeline scaffolding microbench --------------------------------

// Five empty stages: a round through them is 100% pipeline scaffolding —
// the ClusterState clear, the RoundState reset, per-stage span + virtual
// dispatch, and the result move — with zero policy work. Its per-round cost
// is an upper bound on what the StagedScheduler driver adds to any of the
// former monolithic rounds.
struct NullAdmission final : pipeline::IAdmissionStage {
  std::string name() const override { return "bench.null"; }
  void admit(pipeline::RoundState&) override {}
};
struct NullPriority final : pipeline::IPriorityStage {
  std::string name() const override { return "bench.null"; }
  void prioritize(pipeline::RoundState&) override {}
};
struct NullAllocation final : pipeline::IAllocationStage {
  std::string name() const override { return "bench.null"; }
  void allocate(pipeline::RoundState&) override {}
};
struct NullPlacement final : pipeline::IPlacementStage {
  std::string name() const override { return "bench.null"; }
  void place(pipeline::RoundState&) override {}
};
struct NullPreemption final : pipeline::IPreemptionStage {
  std::string name() const override { return "bench.null"; }
  void preempt(pipeline::RoundState&) override {}
};

pipeline::StageSet null_stages() {
  pipeline::StageSet s;
  s.admission = std::make_shared<NullAdmission>();
  s.priority = std::make_shared<NullPriority>();
  s.allocation = std::make_shared<NullAllocation>();
  s.placement = std::make_shared<NullPlacement>();
  s.preemption = std::make_shared<NullPreemption>();
  return s;
}

// ---- Gavel LP event-resolve microbench -------------------------------------

// Snapshot of the Gavel max-min problem for one point in an event stream.
// Construction mirrors GavelScheduler::recompute_allocation.
solver::MaxMinProblem gavel_problem(const DecisionScenario& s,
                                    const std::vector<int>& alive) {
  const int R = s.spec.num_types();
  solver::MaxMinProblem p;
  p.cap.assign(static_cast<std::size_t>(R), 0.0);
  for (GpuTypeId r = 0; r < R; ++r) p.cap[static_cast<std::size_t>(r)] = s.spec.total_of_type(r);
  for (const int i : alive) {
    const auto& job = s.ctx.jobs[static_cast<std::size_t>(i)];
    std::vector<double> row(static_cast<std::size_t>(R), 0.0);
    for (GpuTypeId r = 0; r < R; ++r) {
      row[static_cast<std::size_t>(r)] = job.throughput_on(r) * job.spec->num_workers;
    }
    p.rate.push_back(std::move(row));
    p.demand.push_back(job.spec->num_workers);
    p.scale.push_back(std::max(1e-9, job.max_throughput() * job.spec->num_workers));
    p.key.push_back(job.id());
  }
  return p;
}

struct LpStreamResult {
  double ms_per_event = 0.0;
  double warm_hit_rate = 0.0;
};

// Times the re-solve after each event of a completion stream (one job leaves
// per event, the Gavel steady state). problems[0] is only used to prime the
// warm context; events 1..E are timed.
LpStreamResult time_lp_stream(const std::vector<solver::MaxMinProblem>& problems, bool warm,
                              int reps) {
  LpStreamResult out;
  double total = 0.0;
  int count = 0;
  std::uint64_t attempts = 0, hits = 0;
  for (int rep = 0; rep < reps; ++rep) {
    solver::MaxMinContext ctx;
    if (warm) {
      (void)solver::solve_max_min_lp(problems[0], 200000, &ctx);  // prime
    }
    for (std::size_t e = 1; e < problems.size(); ++e) {
      common::WallTimer t;
      const auto sol =
          solver::solve_max_min_lp(problems[e], 200000, warm ? &ctx : nullptr);
      total += t.seconds();
      ++count;
      if (!sol.feasible) std::fprintf(stderr, "LP stream: infeasible event %zu\n", e);
    }
    attempts += ctx.max_min.stats().warm_attempts;
    hits += ctx.max_min.stats().warm_hits;
  }
  out.ms_per_event = count > 0 ? total * 1e3 / count : 0.0;
  out.warm_hit_rate =
      attempts > 0 ? static_cast<double>(hits) / static_cast<double>(attempts) : 0.0;
  return out;
}

}  // namespace

int main() {
  const int threads = common::ThreadPool::configured_concurrency();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int e2e_jobs = bench::bench_jobs(96);

  std::printf("perf regression harness — %d thread lane(s), %d hardware core(s)\n\n",
              threads, hw);

  // ---- micro: FIND_ALLOC over a 128-job queue on an empty cluster ----
  const auto micro = make_decision_scenario(128);
  const core::UtilityFunction utility(core::UtilityKind::kEffectiveThroughput,
                                      static_cast<double>(micro.ctx.jobs.size()));
  core::PriceBook book(micro.spec.num_types(), core::PricingConfig{});
  book.compute_bounds(micro.ctx, utility);
  const sim::NetworkModel network;
  cluster::ClusterState state(&micro.spec);

  const double find_alloc_s = bench::median_timing([&] {
    return time_per_call([&] {
      for (const auto& j : micro.ctx.jobs) {
        auto cand = core::find_alloc(j, state, book, utility, 0.0, network, {});
        (void)cand;
      }
    });
  });
  const double find_alloc_us =
      find_alloc_s * 1e6 / static_cast<double>(micro.ctx.jobs.size());

  // ---- micro: one DP_allocation round decision, serial vs parallel ----
  std::vector<const sim::JobView*> queue;
  for (const auto& j : micro.ctx.jobs) queue.push_back(&j);
  auto dp_once = [&] {
    auto r = core::dp_allocation(queue, state, book, utility, 0.0, network, {});
    (void)r;
  };
  double dp_serial_ms = 0.0, dp_parallel_ms = 0.0, dp_parallel4_ms = 0.0;
  {
    common::ScopedThreadCount one(1);
    dp_serial_ms = bench::median_timing([&] { return time_per_call(dp_once); }) * 1e3;
  }
  {
    common::ScopedThreadCount many(threads);
    dp_parallel_ms = time_per_call(dp_once) * 1e3;
  }
  {
    // Pinned 4-lane run so the speedup figure is comparable across hosts
    // (the acceptance bar is "> 1.3x at 4 threads on a multi-core box").
    common::ScopedThreadCount four(4);
    dp_parallel4_ms = time_per_call(dp_once) * 1e3;
  }

  // ---- micro: thread-pool dispatch overhead ----
  // A trivial 64-way parallel_for on a private 4-lane pool: what one DP beam
  // level pays just to fan out. The function_ref-style dispatch enqueues raw
  // fn/arg tasks, so this is the descriptor + wakeup cost, no heap
  // std::function per lane.
  double pool_dispatch_us = 0.0;
  {
    common::ThreadPool pool(3);  // 4 lanes: 3 workers + the calling thread
    std::atomic<std::uint64_t> dispatch_sink{0};
    pool_dispatch_us =
        bench::median_timing([&] {
          return time_per_call([&] {
            common::parallel_for(
                64,
                [&](std::size_t i) {
                  dispatch_sink.fetch_add(i, std::memory_order_relaxed);
                },
                &pool);
          });
        }) *
        1e6;
  }

  // ---- micro: DP branch bookkeeping (undo log + incremental hash) ----
  // Per-branch cost of the snapshot replacement: mark, apply a two-node
  // allocation unchecked, read the O(1) state hash, roll back. This is what
  // every explored DP state pays instead of a full Snapshot copy + rehash.
  double dp_branch_ns = 0.0;
  {
    cluster::ClusterState branch_state(&micro.spec);
    branch_state.set_undo_enabled(true);
    const cluster::JobAllocation branch_alloc({{0, 0, 2}, {5, 1, 1}});
    constexpr int kBranches = 1024;
    volatile std::uint64_t hash_sink = 0;
    dp_branch_ns = bench::median_timing([&] {
                     return time_per_call([&] {
                       for (int i = 0; i < kBranches; ++i) {
                         const auto m = branch_state.mark();
                         branch_state.allocate_unchecked(branch_alloc);
                         hash_sink = branch_state.hash();
                         branch_state.rollback(m);
                       }
                     });
                   }) *
                   1e9 / kBranches;
    (void)hash_sink;
    branch_state.set_undo_enabled(false);
  }

  // ---- micro: Gavel LP event-resolve, cold vs warm ----
  // One job completes per event; Gavel re-solves the max-min LP each time.
  const auto lp_scn = make_decision_scenario(96);
  std::vector<solver::MaxMinProblem> lp_problems;
  {
    std::vector<int> alive(lp_scn.ctx.jobs.size());
    for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<int>(i);
    lp_problems.push_back(gavel_problem(lp_scn, alive));
    for (int e = 0; e < 12; ++e) {
      alive.erase(alive.begin() + (static_cast<int>(alive.size()) * 2 / 3));
      lp_problems.push_back(gavel_problem(lp_scn, alive));
    }
  }
  const auto lp_cold = time_lp_stream(lp_problems, false, 3);
  const auto lp_warm = time_lp_stream(lp_problems, true, 3);

  // ---- micro: Gavel round loop with an unchanged job set ----
  // Steady-state rounds between events: priority rebuild + greedy packing,
  // no LP re-solve (the unchanged jobs_epoch short-circuits it).
  double gavel_round_us = 0.0;
  {
    baselines::GavelScheduler gavel{baselines::GavelConfig{}};
    gavel.reset();
    (void)gavel.schedule(lp_scn.ctx);  // first round pays the LP solve
    gavel_round_us = time_per_call([&] { (void)gavel.schedule(lp_scn.ctx); }) * 1e6;
  }

  // ---- micro: per-round live-view refresh (masked_into, zero-alloc) ----
  // RoundEngine refreshes its live ClusterSpec in place each round instead
  // of constructing masked() copies; this pins the refresh cost on a
  // ~1k-node cluster with a degraded mask (the worst realistic case).
  double masked_refresh_us = 0.0;
  {
    const auto big = cluster::ClusterSpec::scaled(334);
    cluster::AvailabilityMask mask(big);
    for (NodeId h = 0; h < big.num_nodes(); h += 7) mask.set_node_up(h, false);
    for (NodeId h = 1; h < big.num_nodes(); h += 11) mask.degrade(h, 0, 1);
    cluster::ClusterSpec live = big.masked(mask);
    masked_refresh_us = bench::median_timing([&] {
                          return time_per_call([&] { big.masked_into(mask, &live); });
                        }) *
                        1e6;
  }

  // ---- micro: staged-pipeline scaffolding + per-stage round split ----
  // PR 9 re-expressed every scheduler as a StagedScheduler assembly; the 16
  // golden digests pin bit-identity, this pins the wall-clock side. The
  // empty-stage round is pure driver scaffolding, gated absolutely below as
  // staged_round_overhead and required to stay under 2% of the real Hadar
  // staged round on the same 96-job context. Stage timing on the Hadar round
  // yields the per-stage split.
  double staged_overhead_us = 0.0;
  double hadar_round_ms = 0.0;
  std::array<double, pipeline::kNumStages> hadar_stage_us{};
  {
    common::ScopedThreadCount one(1);
    pipeline::StagedScheduler nul("bench-null", null_stages());
    nul.reset();
    (void)nul.schedule(lp_scn.ctx);
    staged_overhead_us = bench::median_timing([&] {
                           return time_per_call([&] { (void)nul.schedule(lp_scn.ctx); });
                         }) *
                         1e6;

    core::HadarScheduler hadar;
    hadar.reset();
    (void)hadar.schedule(lp_scn.ctx);  // warm: price bounds + estimator state
    hadar.enable_stage_timing(true);
    hadar_round_ms = time_per_call([&] { (void)hadar.schedule(lp_scn.ctx); }) * 1e3;
    const double rounds = static_cast<double>(hadar.timed_rounds());
    for (int i = 0; i < pipeline::kNumStages; ++i) {
      hadar_stage_us[static_cast<std::size_t>(i)] =
          rounds > 0.0
              ? hadar.stage_seconds()[static_cast<std::size_t>(i)] / rounds * 1e6
              : 0.0;
    }
  }
  const double staged_overhead_frac =
      hadar_round_ms > 0.0 ? staged_overhead_us / (hadar_round_ms * 1e3) : 0.0;
  const bool staged_overhead_ok = staged_overhead_frac < 0.02;

  // ---- obs: disabled-tracing scope cost ----
  // The RAII macro's disabled path must stay off the profile: one relaxed
  // atomic load + branch. Measured as the delta between a counting loop
  // with and without a scope per iteration.
  double ns_per_disabled_scope = 0.0;
  {
    volatile std::uint64_t scope_sink = 0;
    constexpr int kIters = 1 << 22;
    const double base_s = bench::median_timing([&] {
      return time_per_call([&] {
        for (int i = 0; i < kIters; ++i) scope_sink = scope_sink + 1;
      });
    }, 3);
    const double scoped_s = bench::median_timing([&] {
      return time_per_call([&] {
        for (int i = 0; i < kIters; ++i) {
          HADAR_TRACE_SCOPE("bench", "noop");
          scope_sink = scope_sink + 1;
        }
      });
    }, 3);
    ns_per_disabled_scope =
        std::max(0.0, scoped_s - base_s) * 1e9 / static_cast<double>(kIters);
  }

  // ---- obs: end-to-end tracing overhead + schedule identity ----
  // The same Hadar simulation untraced and with a full-detail session
  // installed: the traced run must produce the bit-identical schedule, and
  // the untraced run is what the perf gate protects.
  double sim_plain_s = 0.0, sim_traced_s = 0.0;
  bool traced_identical = false;
  std::size_t traced_events = 0;
  {
    const auto tcfg = runner::paper_static(std::min(e2e_jobs, 48), 42);
    auto run_one = [&] {
      auto sched = runner::make_scheduler("hadar");
      sim::Simulator simulator(tcfg.sim);
      return simulator.run(tcfg.spec, tcfg.trace, *sched);
    };
    common::ScopedThreadCount one(1);
    sim::SimResult plain, traced;
    sim_plain_s = common::time_call([&] { plain = run_one(); });
    {
      obs::TraceConfig ocfg;
      ocfg.detail = 2;
      obs::TraceSession session(ocfg);
      session.install();
      sim_traced_s = common::time_call([&] { traced = run_one(); });
      session.uninstall();
      traced_events = session.event_count();
    }
    traced_identical = same_schedule(plain, traced);
  }
  const double tracing_overhead =
      sim_plain_s > 0.0 ? sim_traced_s / sim_plain_s - 1.0 : 0.0;

  // ---- end-to-end: the paper four-way comparison as one sweep ----
  const auto cases = four_way_cases(e2e_jobs);
  std::vector<runner::SweepResult> serial_runs, parallel_runs;
  double e2e_serial_s = 0.0, e2e_parallel_s = 0.0;
  {
    common::ScopedThreadCount one(1);
    e2e_serial_s = common::time_call([&] { serial_runs = runner::sweep(cases); });
  }
  {
    common::ScopedThreadCount many(threads);
    e2e_parallel_s = common::time_call([&] { parallel_runs = runner::sweep(cases); });
  }

  bool deterministic = serial_runs.size() == parallel_runs.size();
  long long total_rounds = 0;
  for (std::size_t i = 0; i < parallel_runs.size(); ++i) {
    total_rounds += parallel_runs[i].result.rounds;
    deterministic =
        deterministic && same_schedule(serial_runs[i].result, parallel_runs[i].result);
  }
  const double speedup = e2e_parallel_s > 0.0 ? e2e_serial_s / e2e_parallel_s : 0.0;
  const double rounds_per_s =
      e2e_parallel_s > 0.0 ? static_cast<double>(total_rounds) / e2e_parallel_s : 0.0;

  common::AsciiTable t("perf regression (PR 9)", {"metric", "value"});
  t.add_row({"find_alloc / call", common::AsciiTable::num(find_alloc_us, 2) + " us"});
  t.add_row({"dp_allocation (1 thread)", common::AsciiTable::num(dp_serial_ms, 2) + " ms"});
  t.add_row({"dp_allocation (" + std::to_string(threads) + " threads)",
             common::AsciiTable::num(dp_parallel_ms, 2) + " ms"});
  t.add_row({"dp_allocation (4 threads, pinned)",
             common::AsciiTable::num(dp_parallel4_ms, 2) + " ms"});
  t.add_row({"pool dispatch, 64-way / 4 lanes",
             common::AsciiTable::num(pool_dispatch_us, 2) + " us"});
  t.add_row({"dp branch mark/apply/hash/rollback",
             common::AsciiTable::num(dp_branch_ns, 1) + " ns"});
  t.add_row({"gavel LP event re-solve, revised cold",
             common::AsciiTable::num(lp_cold.ms_per_event, 2) + " ms"});
  t.add_row({"gavel LP event re-solve, revised warm",
             common::AsciiTable::num(lp_warm.ms_per_event, 2) + " ms"});
  t.add_row({"warm-basis hit rate", common::AsciiTable::percent(lp_warm.warm_hit_rate)});
  t.add_row({"gavel round loop (no event)",
             common::AsciiTable::num(gavel_round_us, 1) + " us"});
  t.add_row({"masked_into refresh, ~1k nodes",
             common::AsciiTable::num(masked_refresh_us, 1) + " us"});
  t.add_row({"staged pipeline scaffolding / round",
             common::AsciiTable::num(staged_overhead_us, 2) + " us"});
  t.add_row({"hadar staged round (96 jobs)",
             common::AsciiTable::num(hadar_round_ms, 2) + " ms"});
  for (int i = 0; i < pipeline::kNumStages; ++i) {
    t.add_row({std::string("  stage ") +
                   pipeline::to_string(static_cast<pipeline::StageKind>(i)),
               common::AsciiTable::num(hadar_stage_us[static_cast<std::size_t>(i)], 1) +
                   " us"});
  }
  t.add_row({"pipeline overhead vs hadar round",
             common::AsciiTable::percent(staged_overhead_frac)});
  t.add_row({"pipeline overhead < 2%", staged_overhead_ok ? "yes" : "NO"});
  t.add_row({"sweep of " + std::to_string(cases.size()) + " sims, " +
                 std::to_string(e2e_jobs) + " jobs (1 thread)",
             common::AsciiTable::num(e2e_serial_s, 2) + " s"});
  t.add_row({"sweep (" + std::to_string(threads) + " threads)",
             common::AsciiTable::num(e2e_parallel_s, 2) + " s"});
  t.add_row({"end-to-end speedup", common::AsciiTable::speedup(speedup, 2)});
  t.add_row({"rounds / second", common::AsciiTable::num(rounds_per_s, 1)});
  t.add_row({"deterministic across threads", deterministic ? "yes" : "NO"});
  t.add_row({"disabled trace scope", common::AsciiTable::num(ns_per_disabled_scope, 2) + " ns"});
  t.add_row({"hadar e2e, tracing off", common::AsciiTable::num(sim_plain_s, 2) + " s"});
  t.add_row({"hadar e2e, tracing on (" + std::to_string(traced_events) + " events)",
             common::AsciiTable::num(sim_traced_s, 2) + " s"});
  t.add_row({"tracing overhead", common::AsciiTable::percent(tracing_overhead)});
  t.add_row({"traced == untraced schedule", traced_identical ? "yes" : "NO"});
  std::printf("%s\n", t.render().c_str());

  // ---- perf gate: calibration-normalized comparison vs baseline.json ----
  const double calib_s = bench::median_timing([] { return bench::calibration_run(); });
  std::vector<bench::GateMetric> gate_metrics = {
      {"find_alloc_call", find_alloc_us * 1e-6, 0.0},
      {"dp_allocation_serial", dp_serial_ms * 1e-3, 0.0},
      {"dp_branch_snapshot", dp_branch_ns * 1e-9, 0.0},
      {"pool_dispatch", pool_dispatch_us * 1e-6, 0.0},
      {"lp_event_revised_cold", lp_cold.ms_per_event * 1e-3, 0.0},
      {"lp_event_revised_warm", lp_warm.ms_per_event * 1e-3, 0.0},
      {"gavel_round_loop", gavel_round_us * 1e-6, 0.0},
      {"masked_refresh", masked_refresh_us * 1e-6, 0.0},
      {"staged_round_overhead", staged_overhead_us * 1e-6, 0.0},
      {"hadar_e2e_untraced", sim_plain_s, 0.0},
  };
  const bench::GateResult gate = bench::run_perf_gate(gate_metrics, calib_s);
  std::printf("%s\n", gate.report.c_str());
  if (std::FILE* f = std::fopen("perf_gate_current.json", "w")) {
    const std::string out = bench::gate_json(gate_metrics, calib_s);
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote perf_gate_current.json\n");
  }

  const char* out_path = "BENCH_PR9.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"pr\": 9,\n"
                 "  \"threads\": %d,\n"
                 "  \"hardware_concurrency\": %d,\n"
                 "  \"micro\": {\n"
                 "    \"find_alloc_us_per_call\": %.3f,\n"
                 "    \"dp_allocation_ms_serial\": %.3f,\n"
                 "    \"dp_allocation_ms_parallel\": %.3f,\n"
                 "    \"dp_allocation_speedup\": %.3f,\n"
                 "    \"dp_allocation_ms_parallel4\": %.3f,\n"
                 "    \"dp_allocation_speedup_4t\": %.3f,\n"
                 "    \"pool_dispatch_us\": %.3f,\n"
                 "    \"dp_branch_snapshot_ns\": %.1f\n"
                 "  },\n"
                 "  \"lp\": {\n"
                 "    \"jobs\": %zu,\n"
                 "    \"events\": %zu,\n"
                 "    \"cold_revised_ms_per_event\": %.3f,\n"
                 "    \"warm_revised_ms_per_event\": %.3f,\n"
                 "    \"warm_hit_rate\": %.3f\n"
                 "  },\n"
                 "  \"gavel\": {\n"
                 "    \"round_loop_us_no_event\": %.2f\n"
                 "  },\n"
                 "  \"end_to_end\": {\n"
                 "    \"jobs\": %d,\n"
                 "    \"sweep_cases\": %zu,\n"
                 "    \"serial_seconds\": %.3f,\n"
                 "    \"parallel_seconds\": %.3f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"rounds_per_second\": %.1f,\n"
                 "    \"deterministic_across_threads\": %s\n"
                 "  },\n"
                 "  \"pipeline\": {\n"
                 "    \"staged_round_overhead_us\": %.3f,\n"
                 "    \"hadar_staged_round_ms\": %.3f,\n"
                 "    \"stage_us\": {\n"
                 "      \"admission\": %.2f,\n"
                 "      \"priority\": %.2f,\n"
                 "      \"allocation\": %.2f,\n"
                 "      \"placement\": %.2f,\n"
                 "      \"preemption\": %.2f\n"
                 "    },\n"
                 "    \"overhead_vs_hadar_round\": %.5f,\n"
                 "    \"overhead_under_2pct\": %s\n"
                 "  },\n"
                 "  \"obs\": {\n"
                 "    \"disabled_scope_ns\": %.3f,\n"
                 "    \"hadar_e2e_untraced_seconds\": %.3f,\n"
                 "    \"hadar_e2e_traced_seconds\": %.3f,\n"
                 "    \"tracing_overhead\": %.4f,\n"
                 "    \"traced_events\": %zu,\n"
                 "    \"traced_schedule_identical\": %s\n"
                 "  },\n"
                 "  \"perf_gate\": {\n"
                 "    \"calib_seconds\": %.6f,\n"
                 "    \"baseline_found\": %s,\n"
                 "    \"failed\": %s\n"
                 "  }\n"
                 "}\n",
                 threads, hw, find_alloc_us, dp_serial_ms, dp_parallel_ms,
                 dp_parallel_ms > 0.0 ? dp_serial_ms / dp_parallel_ms : 0.0,
                 dp_parallel4_ms,
                 dp_parallel4_ms > 0.0 ? dp_serial_ms / dp_parallel4_ms : 0.0,
                 pool_dispatch_us, dp_branch_ns, lp_scn.ctx.jobs.size(),
                 lp_problems.size() - 1, lp_cold.ms_per_event, lp_warm.ms_per_event,
                 lp_warm.warm_hit_rate, gavel_round_us, e2e_jobs, cases.size(),
                 e2e_serial_s, e2e_parallel_s, speedup, rounds_per_s,
                 deterministic ? "true" : "false", staged_overhead_us,
                 hadar_round_ms, hadar_stage_us[0], hadar_stage_us[1],
                 hadar_stage_us[2], hadar_stage_us[3], hadar_stage_us[4],
                 staged_overhead_frac, staged_overhead_ok ? "true" : "false",
                 ns_per_disabled_scope, sim_plain_s,
                 sim_traced_s, tracing_overhead, traced_events,
                 traced_identical ? "true" : "false", calib_s,
                 gate.baseline_found ? "true" : "false", gate.failed ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "failed to open %s for writing\n", out_path);
    return 1;
  }
  if (gate.failed && bench::perf_gate_enforced()) {
    std::fprintf(stderr, "perf gate: FAILED (>25%% slowdown vs baseline)\n");
    return 3;
  }
  return deterministic && traced_identical && staged_overhead_ok ? 0 : 2;
}
