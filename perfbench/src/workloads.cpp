#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "baselines/gavel.hpp"
#include "common/binary.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "probes.hpp"
#include "runner/scenarios.hpp"
#include "service/changelog.hpp"
#include "service/daemon.hpp"
#include "service/recovery.hpp"
#include "service/snapshot.hpp"
#include "sim/round_engine.hpp"
#include "sim/sharded.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {
namespace {

using namespace hadar;
namespace fs = std::filesystem;

constexpr double kHour = 3600.0;
/// WorkloadDef::units is the trace count for this time budget.
constexpr double kUnitSeconds = 10.0;

/// Seed of the i-th trace of a run; the first trace uses the run's seed.
std::uint64_t unit_seed(std::uint64_t seed, int i) {
  return i == 0 ? seed : common::mix64(seed, static_cast<std::uint64_t>(i));
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0, double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

// ------------------------------------------------------------- scenario ---

/// Cluster, trace and engine config of one workload instance. Heap-held:
/// engines and daemons keep a pointer to the spec.
struct Scenario {
  cluster::ClusterSpec spec;
  workload::Trace trace;
  sim::SimConfig sim;
};

std::unique_ptr<Scenario> make_scenario(const WorkloadDef& d, std::uint64_t seed) {
  auto s = std::make_unique<Scenario>();
  if (d.nodes_per_type == 0) {
    runner::ExperimentConfig e = d.jobs_per_hour > 0.0
                                     ? runner::paper_continuous(d.jobs_per_hour, d.jobs, seed)
                                     : runner::paper_static(d.jobs, seed);
    s->spec = std::move(e.spec);
    s->trace = std::move(e.trace);
    s->sim = e.sim;
  } else {
    static const workload::ModelZoo zoo = workload::ModelZoo::paper_default();
    s->spec = cluster::ClusterSpec::scaled(d.nodes_per_type);
    workload::TraceGenConfig t;
    t.num_jobs = d.jobs;
    t.arrivals = d.jobs_per_hour > 0.0 ? workload::ArrivalPattern::kContinuous
                                       : workload::ArrivalPattern::kStatic;
    t.jobs_per_hour = d.jobs_per_hour;
    t.seed = seed;
    s->trace = workload::TraceGenerator(&zoo, &s->spec.types()).generate(t);
    s->sim.round_length = 360.0;
    s->sim.flat_reallocation_penalty = 10.0;
    s->sim.seed = seed;
    if (d.node_mttf > 0.0) {
      s->sim.failure.node_mttf = d.node_mttf;
      s->sim.failure.seed = seed ^ 0x5bd1e995u;
    }
  }
  s->sim.validate_allocations = true;  // timed runs keep the referee on
  return s;
}

// --------------------------------------------------------------- policy ---

/// Builds the workload's policy, optionally wrapped in ProbedScheduler at
/// the top and (under sharding) around every cell's instance. Must outlive
/// the scheduler it builds: the sharded factory refers back to it.
class PolicyFactory {
 public:
  PolicyFactory(const WorkloadDef& d, SpanLog* log, bool decorate)
      : d_(d), log_(log), decorate_(decorate) {}
  PolicyFactory(const PolicyFactory&) = delete;
  PolicyFactory& operator=(const PolicyFactory&) = delete;

  sim::SchedulerPtr build() {
    sim::SchedulerPtr top;
    if (d_.sharded) {
      sim::ShardConfig cfg;
      cfg.cells = 0;  // auto-size from the cluster
      auto shard = std::make_unique<sim::ShardedScheduler>(
          [this] { return wrap(base(), ProbedScheduler::Role::kCell); }, cfg);
      sharded_ = shard.get();
      top = std::move(shard);
    } else {
      top = base();
    }
    return wrap(std::move(top), ProbedScheduler::Role::kTop);
  }

  /// Hadar's recompute period (0 for policies without one).
  int full_recompute_period() const {
    return d_.policy == "hadar" ? core::HadarConfig{}.full_recompute_period : 0;
  }
  const sim::ShardedScheduler* sharded() const { return sharded_; }

  /// Solver statistics summed over every Gavel instance built so far.
  solver::RevisedStats solver_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    solver::RevisedStats sum;
    for (const auto& st : gavel_) {
      for (const solver::LpContext* lp : {&st->lp_ctx.max_min, &st->lp_ctx.max_sum}) {
        const solver::RevisedStats& s = lp->stats();
        sum.cold_solves += s.cold_solves;
        sum.warm_attempts += s.warm_attempts;
        sum.warm_hits += s.warm_hits;
        sum.phase1_pivots += s.phase1_pivots;
        sum.phase2_pivots += s.phase2_pivots;
        sum.canonical_pivots += s.canonical_pivots;
        sum.refactorizations += s.refactorizations;
      }
    }
    return sum;
  }

 private:
  sim::SchedulerPtr base() {
    if (d_.policy == "hadar") return std::make_unique<core::HadarScheduler>(core::HadarConfig{});
    if (d_.policy != "gavel") throw std::invalid_argument("unknown policy " + d_.policy);
    std::shared_ptr<baselines::GavelPipelineState> st;
    pipeline::StageSet stages = baselines::make_gavel_stages(baselines::GavelConfig{}, &st);
    {
      std::lock_guard<std::mutex> lock(mu_);
      gavel_.push_back(st);
    }
    return std::make_unique<pipeline::StagedScheduler>("Gavel", std::move(stages));
  }

  sim::SchedulerPtr wrap(sim::SchedulerPtr inner, ProbedScheduler::Role role) {
    if (!decorate_) return inner;
    return std::make_unique<ProbedScheduler>(std::move(inner), role, log_);
  }

  const WorkloadDef& d_;
  SpanLog* log_;
  bool decorate_;
  sim::ShardedScheduler* sharded_ = nullptr;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<baselines::GavelPipelineState>> gavel_;
};

// ----------------------------------------------------------------- units ---

/// What one unit (setup + measured run + recovery) produced.
struct Unit {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> round_ms;
  std::vector<int> flags;
  std::uint64_t digest = kDigestSeed;
  long long rounds = 0;     ///< every round executed (warm-up, timed, tail)
  long long submitted = 0;  ///< jobs admitted or submitted
  long long rejected = 0;
  long long unfinished = 0;
  sim::SimResult result;
  std::vector<double> recovery_s;
  long long replayed_rounds = 0;
  std::string state_bytes;
  // Traced-run extras.
  solver::RevisedStats solver;
  int cells = 1;
  long long migrations = 0;
};

/// Simulated time of the last completion in `r` (the makespan of a run to
/// completion; windowed runs stop with jobs outstanding).
double last_completion(const sim::SimResult& r) {
  double t = 0.0;
  for (const auto& j : r.jobs) {
    if (j.finished()) t = std::max(t, j.finish);
  }
  return t;
}

bool same_outcome(const sim::SimResult& a, const sim::SimResult& b) {
  return a.rounds == b.rounds && a.avg_jct == b.avg_jct && a.makespan == b.makespan &&
         a.gpu_utilization == b.gpu_utilization && a.total_reallocations == b.total_reallocations &&
         a.total_preemptions == b.total_preemptions && a.num_unfinished == b.num_unfinished &&
         a.lost_gpu_seconds == b.lost_gpu_seconds;
}

/// Live engine state captured when the durable state was frozen.
struct KillPoint {
  bool taken = false;
  long long rounds = 0;
  std::uint64_t rng = 0;
  sim::SimResult result;
};

KillPoint capture(const sim::RoundEngine& engine, std::size_t population) {
  KillPoint k;
  k.taken = true;
  k.rounds = engine.rounds_completed();
  k.rng = engine.rng_state();
  k.result = engine.finalize(population);
  return k;
}

/// Recovers fresh engines from `dir` until a second is spent (at least
/// `min_reps` times) and checks the first one against the kill point.
void time_recovery(const WorkloadDef& d, const Scenario& sc, const std::string& dir,
                   const KillPoint& kp, int min_reps, Unit& u, Report& rep, SpanLog* log) {
  const std::int64_t start = now_ns();
  for (int rep_i = 0; rep_i < 31; ++rep_i) {
    if (rep_i >= min_reps && seconds_since(start) > 1.0) break;
    sim::RoundEngine engine(&sc.spec, sc.sim);
    PolicyFactory pb(d, nullptr, false);
    sim::SchedulerPtr sched = pb.build();
    sched->reset();
    const std::int64_t t0 = now_ns();
    const service::RecoveryReport r = service::recover(dir, engine, *sched);
    const std::int64_t t1 = now_ns();
    u.recovery_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (log != nullptr) {
      Span s;
      s.id = log->reserve();
      s.name = "recover";
      s.start_ns = t0;
      s.end_ns = t1;
      s.arg[0] = static_cast<double>(r.replayed_rounds);
      log->add(s);
    }
    if (rep_i == 0) {
      u.replayed_rounds = r.replayed_rounds;
      if (!r.recovered || engine.rounds_completed() != kp.rounds ||
          engine.rng_state() != kp.rng ||
          !same_outcome(engine.finalize(sc.trace.jobs.size()), kp.result)) {
        rep.errors.push_back("recovered engine differs from the live one at round " +
                             std::to_string(kp.rounds));
      }
    }
  }
}

/// Times `fn` as a phase span when tracing.
template <typename Fn>
double timed_phase(SpanLog* log, const char* name, double count, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  if (log != nullptr) {
    Span s;
    s.id = log->reserve();
    s.name = name;
    s.start_ns = t0;
    s.end_ns = t1;
    s.arg[0] = count;
    log->add(s);
  }
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Records the round span of a timed round.
void round_span(SpanLog* log, std::uint32_t id, std::int64_t t0, std::int64_t t1,
                const sim::RoundOutcome& out, long long admitted, int flags) {
  if (log == nullptr) return;
  Span s;
  s.id = id;
  s.kind = SpanKind::kRound;
  s.name = "round";
  s.start_ns = t0;
  s.end_ns = t1;
  s.arg[kArgRound] = static_cast<double>(out.round);
  s.arg[kArgRunnable] = out.runnable;
  s.arg[kArgScheduled] = out.scheduled;
  s.arg[kArgFinished] = static_cast<double>(out.finished.size());
  s.arg[kArgAdmitted] = static_cast<double>(admitted);
  s.arg[kArgFlags] = flags;
  s.arg[kArgEngineScheduleMs] = out.schedule_seconds * 1e3;
  log->add(s);
}

std::uint32_t begin_round(SpanLog* log) {
  if (log == nullptr) return 0;
  const std::uint32_t id = log->reserve();
  log->round_span.store(id);
  return id;
}

std::string save_bytes(const sim::IScheduler& s) {
  common::BinaryWriter w;
  s.save_state(w);
  return w.take();
}

/// One RoundEngine unit: setup, warm-up, the timed rounds (to completion or
/// a fixed window), then durable-state recovery from the kill point.
Unit engine_unit(const WorkloadDef& d, const RunOptions& opt, SpanLog* log, Report& rep,
                 int min_recoveries) {
  Unit u;
  const std::int64_t setup_t0 = now_ns();
  std::unique_ptr<Scenario> sc;
  timed_phase(log, "trace_gen", 0, [&] { sc = make_scenario(d, opt.seed); });
  const auto& jobs = sc->trace.jobs;
  sim::RoundEngine engine(&sc->spec, sc->sim);
  PolicyFactory pb(d, log, opt.decorate);
  sim::SchedulerPtr sched = pb.build();
  sched->reset();
  const int period = pb.full_recompute_period();

  std::size_t next = 0;
  auto admit_due = [&] {
    std::size_t n = 0;
    while (next < jobs.size() && jobs[next].arrival <= engine.now() + 1e-9) {
      engine.admit(jobs[next++]);
      ++n;
    }
    return n;
  };
  auto admit_phase = [&] {
    std::size_t n = 0;
    const std::int64_t t0 = now_ns();
    n = admit_due();
    if (log != nullptr && n > 0) {
      Span s;
      s.id = log->reserve();
      s.name = "admit";
      s.start_ns = t0;
      s.end_ns = now_ns();
      s.arg[0] = static_cast<double>(n);
      log->add(s);
    }
    u.submitted += static_cast<long long>(n);
    return n;
  };

  admit_phase();
  for (int i = 0; i < d.warmup_rounds; ++i) {
    const sim::RoundOutcome out = engine.step(*sched);
    u.digest = fold_digest(u.digest, out.round, out.allocations);
    ++u.rounds;
  }
  u.setup_s = seconds_since(setup_t0);

  const std::string dir = opt.work_dir + "/durable";
  KillPoint kp;
  auto freeze = [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    service::write_snapshot(service::snapshot_path(dir, engine.rounds_completed()), engine,
                            *sched, false);
    kp = capture(engine, jobs.size());
  };

  if (log != nullptr) log->recording.store(true);
  bool job_set_changed = true;
  long long timed = 0;
  std::int64_t paused_ns = 0;
  const std::int64_t run_t0 = now_ns();
  while (d.timed_rounds > 0 ? timed < d.timed_rounds
                            : next < jobs.size() || engine.unfinished_admitted() > 0) {
    const std::size_t admitted = admit_phase();
    if (admitted > 0) job_set_changed = true;
    if (!engine.has_runnable()) {
      if (next >= jobs.size()) break;
      engine.skip_to(jobs[next].arrival);
      continue;
    }
    const std::uint32_t rid = begin_round(log);
    const std::int64_t t0 = now_ns();
    const sim::RoundOutcome out = engine.step(*sched);
    const std::int64_t t1 = now_ns();
    int flags = job_set_changed ? kFlagJobSetChanged : 0;
    if (period > 0 && engine.rounds_completed() % period == 0) flags |= kFlagRecompute;
    job_set_changed = !out.finished.empty();
    u.round_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    u.flags.push_back(flags);
    u.digest = fold_digest(u.digest, out.round, out.allocations);
    round_span(log, rid, t0, t1, out, static_cast<long long>(admitted), flags);
    ++u.rounds;
    ++timed;
    if (d.kill_round > 0 && engine.rounds_completed() == d.kill_round) {
      const std::int64_t p0 = now_ns();
      freeze();
      paused_ns += now_ns() - p0;
    }
  }
  u.run_s = static_cast<double>(now_ns() - run_t0 - paused_ns) * 1e-9;
  if (log != nullptr) log->recording.store(false);
  if (!kp.taken) freeze();

  if (const sim::ShardedScheduler* s = pb.sharded()) {
    u.cells = s->num_cells();
    u.migrations = s->migrations();
  }
  u.solver = pb.solver_stats();
  timed_phase(log, "finalize", 0, [&] { u.result = engine.finalize(jobs.size()); });
  u.unfinished = d.timed_rounds > 0 ? 0 : u.result.num_unfinished;
  u.state_bytes = save_bytes(*sched);
  time_recovery(d, *sc, dir, kp, min_recoveries, u, rep, log);
  fs::remove_all(dir);
  return u;
}

/// Untraced setup only (setup_s samples beyond the measured unit's own).
double engine_setup_only(const WorkloadDef& d, const RunOptions& opt) {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<Scenario> sc = make_scenario(d, opt.seed);
  sim::RoundEngine engine(&sc->spec, sc->sim);
  PolicyFactory pb(d, nullptr, opt.decorate);
  sim::SchedulerPtr sched = pb.build();
  sched->reset();
  for (const auto& j : sc->trace.jobs) {
    if (j.arrival > engine.now() + 1e-9) break;
    engine.admit(j);
  }
  for (int i = 0; i < d.warmup_rounds; ++i) engine.step(*sched);
  return seconds_since(t0);
}

service::ServiceConfig service_config(const WorkloadDef& d, const Scenario& sc,
                                      const std::string& dir) {
  service::ServiceConfig cfg;
  cfg.dir = dir;
  cfg.snapshot_interval = d.snapshot_interval;
  cfg.queue_depth = sc.trace.jobs.size() + 1;  // every submission is accepted
  cfg.fsync = service::FsyncMode::kNone;
  cfg.sim = sc.sim;
  return cfg;
}

/// One service unit: a durable daemon fed open-loop arrivals. Rounds are
/// timed while arrivals are still landing; the daemon then runs untimed to
/// a full replay tail (one round short of a snapshot) and is stopped there,
/// mid-load, and recovered from its directory.
Unit service_unit(const WorkloadDef& d, const RunOptions& opt, SpanLog* log, Report& rep,
                  int min_recoveries) {
  Unit u;
  const std::string dir = opt.work_dir + "/service";
  const std::int64_t setup_t0 = now_ns();
  std::unique_ptr<Scenario> sc;
  timed_phase(log, "trace_gen", 0, [&] { sc = make_scenario(d, opt.seed); });
  const auto& jobs = sc->trace.jobs;
  fs::remove_all(dir);
  PolicyFactory pb(d, log, opt.decorate);
  auto daemon = std::make_unique<service::SchedulerDaemon>(&sc->spec, pb.build(),
                                                           service_config(d, *sc, dir));
  const int period = pb.full_recompute_period();
  u.setup_s = seconds_since(setup_t0);

  std::size_t next = 0;
  auto submit = [&](const workload::JobSpec& j) {
    if (!daemon->submit(j)) ++u.rejected;
    ++u.submitted;
  };
  auto fold = [&](const sim::RoundOutcome& out) {
    u.digest = fold_digest(u.digest, out.round, out.allocations);
    ++u.rounds;
  };

  if (log != nullptr) log->recording.store(true);
  std::size_t admitted_before = daemon->engine().jobs_admitted();
  bool job_set_changed = true;
  const std::int64_t run_t0 = now_ns();
  while (next < jobs.size() || daemon->pending_arrivals() > 0 || daemon->queue().size() > 0) {
    // Open loop: submit every job due before the next round boundary.
    const double boundary = daemon->engine().now() + sc->sim.round_length;
    const std::size_t first = next;
    const std::int64_t s0 = now_ns();
    while (next < jobs.size() && jobs[next].arrival < boundary) submit(jobs[next++]);
    if (daemon->idle() && next < jobs.size()) submit(jobs[next++]);  // skip the idle gap
    if (log != nullptr && next > first) {
      Span s;
      s.id = log->reserve();
      s.name = "submit";
      s.start_ns = s0;
      s.end_ns = now_ns();
      s.arg[0] = static_cast<double>(next - first);
      log->add(s);
    }

    const std::uint32_t rid = begin_round(log);
    const std::int64_t t0 = now_ns();
    const std::optional<sim::RoundOutcome> out = daemon->run_round();
    const std::int64_t t1 = now_ns();
    if (!out) break;
    const std::size_t admitted = daemon->engine().jobs_admitted() - admitted_before;
    admitted_before = daemon->engine().jobs_admitted();
    int flags = job_set_changed || admitted > 0 ? kFlagJobSetChanged : 0;
    if (period > 0 && daemon->engine().rounds_completed() % period == 0) flags |= kFlagRecompute;
    job_set_changed = !out->finished.empty();
    u.round_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    u.flags.push_back(flags);
    round_span(log, rid, t0, t1, *out, static_cast<long long>(admitted), flags);
    fold(*out);
  }
  u.run_s = seconds_since(run_t0);
  if (log != nullptr) log->recording.store(false);

  // Run on to a full replay tail, then stop mid-load.
  while (daemon->engine().rounds_completed() % d.snapshot_interval != d.snapshot_interval - 1) {
    const std::optional<sim::RoundOutcome> out = daemon->run_round();
    if (!out) break;
    fold(*out);
  }
  daemon->sync();
  KillPoint kp;
  timed_phase(log, "finalize", 0, [&] { kp = capture(daemon->engine(), jobs.size()); });
  if (const sim::ShardedScheduler* s = pb.sharded()) {
    u.cells = s->num_cells();
    u.migrations = s->migrations();
  }

  if (log != nullptr) {
    const std::string snap = opt.work_dir + "/snapshot-probe.snap";
    for (int i = 0; i < 3; ++i) {
      timed_phase(log, "snapshot", 0, [&] {
        service::write_snapshot(snap, daemon->engine(), daemon->scheduler(), false);
      });
    }
    fs::remove(snap);
    // WAL append cost: re-append the run's own durable records.
    std::vector<std::string> records;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() != ".wal") continue;
      service::ChangelogScan scan = service::scan_changelog(e.path().string());
      for (auto& r : scan.records) records.push_back(std::move(r));
    }
    const std::string wal = opt.work_dir + "/append-probe.wal";
    {
      service::ChangelogWriter w(wal);
      const std::uint64_t before = w.bytes();
      Span s;
      s.id = log->reserve();
      s.name = "wal_append";
      s.start_ns = now_ns();
      for (const auto& r : records) w.append(r);
      s.end_ns = now_ns();
      s.arg[0] = static_cast<double>(records.size());
      s.arg[1] = static_cast<double>(w.bytes() - before);
      log->add(s);
    }
    fs::remove(wal);
  }

  time_recovery(d, *sc, dir, kp, min_recoveries, u, rep, log);
  u.result = kp.result;
  u.state_bytes = save_bytes(daemon->scheduler());
  daemon.reset();
  fs::remove_all(dir);
  return u;
}

double service_setup_only(const WorkloadDef& d, const RunOptions& opt) {
  const std::string dir = opt.work_dir + "/service-setup";
  fs::remove_all(dir);
  const std::int64_t t0 = now_ns();
  std::unique_ptr<Scenario> sc = make_scenario(d, opt.seed);
  PolicyFactory pb(d, nullptr, opt.decorate);
  service::SchedulerDaemon daemon(&sc->spec, pb.build(), service_config(d, *sc, dir));
  const double s = seconds_since(t0);
  fs::remove_all(dir);
  return s;
}

// ------------------------------------------------------------- analysis ---

/// Per-layer metrics from the spans of one traced unit, plus the layer-sum
/// checks. Every per-layer name is emitted on every workload (0 where the
/// layer is idle).
void layer_metrics(const WorkloadDef& d, const std::vector<Span>& spans, const Unit& u,
                   int threads, Report& rep) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> kids;
  for (const Span& s : spans) kids[s.parent].push_back(&s);
  auto children = [&](const Span& p, SpanKind k) {
    std::vector<const Span*> out;
    const auto it = kids.find(p.id);
    if (it == kids.end()) return out;
    for (const Span* c : it->second) {
      if (c->kind == k) out.push_back(c);
    }
    return out;
  };

  double round_sum = 0, sched_sum = 0, engine_sum = 0, staged_sum = 0, stage_total = 0;
  double stage_sum[pipeline::kNumStages] = {};
  double orch_sum = 0, par_sum = 0, cell_max_sum = 0, cell_sum = 0;
  double dp_states = 0, dp_tail = 0, runnable = 0, scheduled = 0;
  long long rounds = 0, sharded_rounds = 0;
  std::vector<double> recompute_ms, sticky_ms, event_alloc_ms;
  for (const Span& r : spans) {
    if (r.kind != SpanKind::kRound) continue;
    const auto scheds = children(r, SpanKind::kSchedule);
    if (scheds.size() != 1) {
      rep.errors.push_back("round span without exactly one schedule span");
      continue;
    }
    const Span& s = *scheds.front();
    ++rounds;
    round_sum += r.ms();
    sched_sum += s.ms();
    engine_sum += r.ms() - r.arg[kArgEngineScheduleMs];
    runnable += r.arg[kArgRunnable];
    scheduled += r.arg[kArgScheduled];
    const int flags = static_cast<int>(r.arg[kArgFlags]);
    if (d.policy == "hadar") ((flags & kFlagRecompute) ? recompute_ms : sticky_ms).push_back(r.ms());

    // Stages hang off the schedule span (flat) or off each cell span.
    std::vector<const Span*> owners;
    const auto cells = children(s, SpanKind::kCell);
    if (cells.empty()) {
      owners.push_back(&s);
      staged_sum += s.ms();
    } else {
      ++sharded_rounds;
      std::int64_t first = cells.front()->start_ns, last = cells.front()->end_ns;
      double cmax = 0;
      for (const Span* c : cells) {
        owners.push_back(c);
        staged_sum += c->ms();
        cell_sum += c->ms();
        cmax = std::max(cmax, c->ms());
        first = std::min(first, c->start_ns);
        last = std::max(last, c->end_ns);
      }
      if (first < s.start_ns || last > s.end_ns) {
        rep.errors.push_back("cell span outside its schedule span");
      }
      const double par = static_cast<double>(last - first) * 1e-6;
      par_sum += par;
      orch_sum += static_cast<double>((first - s.start_ns) + (s.end_ns - last)) * 1e-6;
      cell_max_sum += cmax;
    }
    double alloc_ms = 0;
    for (const Span* o : owners) {
      dp_states += o->arg[kArgDpStates];
      dp_tail += o->arg[kArgDpTail];
      for (const Span* st : children(*o, SpanKind::kStage)) {
        const int k = static_cast<int>(st->arg[0]);
        stage_sum[k] += st->ms();
        stage_total += st->ms();
        if (k == static_cast<int>(pipeline::StageKind::kAllocation)) alloc_ms += st->ms();
      }
    }
    if (flags & kFlagJobSetChanged) event_alloc_ms.push_back(alloc_ms);
  }
  const double n = std::max<long long>(rounds, 1);

  std::map<std::string, std::vector<const Span*>> phases;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kPhase) phases[s.name].push_back(&s);
  }
  auto phase_ms = [&](const std::string& name) {
    std::vector<double> v;
    for (const Span* s : phases[name]) v.push_back(s->ms());
    return median(v);
  };
  struct PhaseSum {
    double ms = 0, count = 0, bytes = 0;  // span time, arg0, arg1
    double us_each() const { return count > 0 ? ms * 1e3 / count : 0.0; }
  };
  auto phase_sum = [&](const std::string& name) {
    PhaseSum p;
    for (const Span* s : phases[name]) {
      p.ms += s->ms();
      p.count += s->arg[0];
      p.bytes += s->arg[1];
    }
    return p;
  };

  rep.add("sim.engine_ms", engine_sum / n, "ms");
  rep.add("sim.admit_us", phase_sum("admit").us_each(), "us");
  rep.add("sim.finalize_ms", phase_ms("finalize"), "ms");
  rep.add("sim.round_ms.recompute_p50", median(recompute_ms), "ms");
  rep.add("sim.round_ms.sticky_p50", median(sticky_ms), "ms");
  rep.add("sim.runnable_per_round", runnable / n, "count");
  rep.add("sim.scheduled_per_round", scheduled / n, "count");
  rep.add("sched.schedule_ms", sched_sum / n, "ms");
  for (int k = 0; k < pipeline::kNumStages; ++k) {
    rep.add(std::string("pipeline.") +
                pipeline::to_string(static_cast<pipeline::StageKind>(k)) + "_ms",
            stage_sum[k] / n, "ms");
  }
  const double coverage = staged_sum > 0 ? stage_total / staged_sum : 0.0;
  rep.add("pipeline.coverage", coverage, "fraction");
  rep.add("core.dp_states", dp_states, "count");
  rep.add("core.dp_greedy_tail_jobs", dp_tail, "count");
  rep.add("core.dp_us_per_state",
          dp_states > 0 ? stage_sum[static_cast<int>(pipeline::StageKind::kAllocation)] * 1e3 /
                              dp_states
                        : 0.0,
          "us");
  const double sn = std::max<long long>(sharded_rounds, 1);
  rep.add("sharded.cells", u.cells, "count");
  rep.add("sharded.migrations", static_cast<double>(u.migrations), "count");
  rep.add("sharded.orchestration_ms", orch_sum / sn, "ms");
  rep.add("sharded.cell_ms_max", cell_max_sum / sn, "ms");
  rep.add("sharded.lane_busy_frac",
          par_sum > 0 ? cell_sum / (std::min(threads, u.cells) * par_sum) : 0.0, "fraction");
  const solver::RevisedStats& lp = u.solver;
  rep.add("solver.solves", static_cast<double>(lp.cold_solves + lp.warm_hits), "count");
  rep.add("solver.pivots",
          static_cast<double>(lp.phase1_pivots + lp.phase2_pivots + lp.canonical_pivots),
          "count");
  rep.add("solver.refactorizations", static_cast<double>(lp.refactorizations), "count");
  rep.add("solver.warm_hit_frac",
          lp.warm_attempts > 0
              ? static_cast<double>(lp.warm_hits) / static_cast<double>(lp.warm_attempts)
              : 0.0,
          "fraction");
  rep.add("solver.event_round_ms_p50", d.policy == "gavel" ? median(event_alloc_ms) : 0.0,
          "ms");
  const PhaseSum append = phase_sum("wal_append");
  const PhaseSum recover = phase_sum("recover");
  rep.add("service.submit_us", phase_sum("submit").us_each(), "us");
  rep.add("service.durable_ms", d.service ? (round_sum - sched_sum) / n : 0.0, "ms");
  rep.add("service.wal_append_us", append.us_each(), "us");
  rep.add("service.wal_bytes_per_round", append.count > 0 ? append.bytes / append.count : 0.0,
          "B");
  rep.add("service.snapshot_ms", d.service ? phase_ms("snapshot") : 0.0, "ms");
  rep.add("service.replay_ms_per_round",
          d.service && recover.count > 0 ? recover.ms / recover.count : 0.0, "ms");
  rep.add("workload.trace_gen_s", phase_ms("trace_gen") * 1e-3, "s");

  // ---- layer-sum checks ----
  if (coverage < 0.95) {
    rep.errors.push_back(fmt("layer-sum: stages cover %.1f%% of schedule() (< 95%%)",
                             coverage * 100.0));
  }
  if (std::abs(sched_sum + engine_sum - round_sum) > 0.05 * round_sum) {
    rep.errors.push_back(fmt("layer-sum: schedule %.1f ms + engine %.1f ms != round %.1f ms",
                             sched_sum, engine_sum, round_sum));
  }
  if (sharded_rounds > 0 && std::abs(orch_sum + par_sum - sched_sum) > 0.05 * sched_sum) {
    rep.errors.push_back(fmt("layer-sum: orchestration %.1f ms + cells %.1f ms != schedule %.1f ms",
                             orch_sum, par_sum, sched_sum));
  }
  rep.notes.push_back(fmt("layers: %.0f rounds, stage coverage %.4f, schedule+engine/round %.4f",
                          static_cast<double>(rounds), coverage,
                          round_sum > 0 ? (sched_sum + engine_sum) / round_sum : 0.0));
}

// ---------------------------------------------------------------- runs ---

Unit run_unit(const WorkloadDef& d, const RunOptions& opt, SpanLog* log, Report& rep,
              int min_recoveries = 3) {
  return d.service ? service_unit(d, opt, log, rep, min_recoveries)
                   : engine_unit(d, opt, log, rep, min_recoveries);
}

double setup_only(const WorkloadDef& d, const RunOptions& opt) {
  return d.service ? service_setup_only(d, opt) : engine_setup_only(d, opt);
}

/// Checks and bookkeeping shared by every unit.
void account(const WorkloadDef& d, const Unit& u, Report& rep) {
  rep.attempted += u.rounds + u.submitted;
  rep.failed += u.rejected + u.unfinished;
  if (u.unfinished > 0) {
    rep.errors.push_back(std::to_string(u.unfinished) + " jobs unfinished in " + d.name);
  }
}

void percentile_rows(const std::vector<double>& ms, Report& rep) {
  const long long beyond = samples_beyond(ms.size(), 0.9);
  rep.notes.push_back("round_ms: " + std::to_string(ms.size()) + " samples, " +
                      std::to_string(beyond) + " beyond p90");
  if (beyond < 10) rep.errors.push_back("round_ms_p90 rests on fewer than 10 samples");
}

void recompute_rows(const WorkloadDef& d, const std::vector<Unit>& units, Report& rep) {
  if (d.policy != "hadar") return;
  const int period = core::HadarConfig{}.full_recompute_period;
  std::vector<double> rec, sticky;
  for (const Unit& u : units) {
    for (std::size_t i = 0; i < u.round_ms.size(); ++i) {
      ((u.flags[i] & kFlagRecompute) ? rec : sticky).push_back(u.round_ms[i]);
    }
  }
  rep.notes.push_back(fmt("recompute rounds: %.0f, p50 %.3f ms; sticky rounds: %.0f, p50 %.3f ms",
                          static_cast<double>(rec.size()), median(rec),
                          static_cast<double>(sticky.size()), median(sticky)));
  for (const Unit& u : units) {
    if (static_cast<long long>(u.round_ms.size()) < 2LL * period) {
      rep.errors.push_back("a unit spans fewer than two full-recompute cycles");
    }
  }
}

}  // namespace

WorkloadDef workload_def(const std::string& name) {
  WorkloadDef d;
  d.name = name;
  if (name == "paper_static") {
    d.kill_round = 2000;
    d.units = 4;
  } else if (name == "gavel_poisson") {
    d.policy = "gavel";
    // At the paper's 1.5 jobs/h the runnable set hovers around Gavel's
    // 96-job LP threshold, so whether a trace mostly solves LPs or mostly
    // fills varies by seed and round_ms_p90 spread 19-32% over ten seeds
    // even at 16 traces a run. At 3 jobs/h the LP still re-solves (warm)
    // through ramp-up and drain, and the figures hold within a few percent.
    d.jobs_per_hour = 3.0;
    d.kill_round = 2000;
    d.units = 16;
  } else if (name == "scale_10k") {
    d.threads = 4;
    d.sharded = true;
    d.nodes_per_type = 3334;
    d.jobs = 100000;
    d.timed_rounds = 100;
    d.warmup_rounds = 1;
    d.setups = 5;
  } else if (name == "service_churn") {
    // ~4k GPUs: 200 jobs/h keeps the runnable set just above what fits.
    d.threads = 4;
    d.sharded = true;
    d.service = true;
    d.nodes_per_type = 334;
    d.jobs = 4000;
    d.jobs_per_hour = 200.0;
    d.node_mttf = 30.0 * 24.0 * kHour;
    d.setups = 5;
    d.units = 6;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return d;
}

Report run_workload(const WorkloadDef& d, const RunOptions& opt) {
  common::ScopedThreadCount pin(d.threads);
  Report rep;
  fs::create_directories(opt.work_dir);
  rep.notes.push_back("config: workload=" + d.name + " policy=" + d.policy +
                      " threads=" + std::to_string(d.threads) +
                      " sharded=" + (d.sharded ? "auto-cells" : "no") +
                      " jobs=" + std::to_string(d.jobs) +
                      " nodes_per_type=" + std::to_string(d.nodes_per_type) +
                      fmt(" jobs_per_hour=%g node_mttf_h=%g", d.jobs_per_hour, d.node_mttf / kHour) +
                      " timed_rounds=" + (d.timed_rounds > 0 ? std::to_string(d.timed_rounds)
                                                             : std::string("to-completion")) +
                      " full_recompute_period=" +
                      std::to_string(core::HadarConfig{}.full_recompute_period) +
                      fmt(" cell_migration=%g starvation_rounds=%g lp_job_threshold=%g",
                          sim::ShardConfig{}.migration_threshold,
                          sim::ShardConfig{}.starvation_rounds,
                          baselines::GavelConfig{}.solver.lp_job_threshold) +
                      " snapshot_interval=" + std::to_string(d.snapshot_interval) +
                      " units=" + std::to_string(d.units) +
                      " validate_allocations=" + (sim::SimConfig{}.validate_allocations ? "1" : "0") +
                      " seed=" + std::to_string(opt.seed));

  try {
    if (opt.trace) {
      // One traced unit for the layers (counts then describe exactly one
      // unit of work) between two untraced ones, whose mean is the
      // overhead baseline: the first unit of a process runs cold.
      const Unit before = run_unit(d, opt, nullptr, rep);
      SpanLog log;
      const Unit traced = run_unit(d, opt, &log, rep);
      const Unit after = run_unit(d, opt, nullptr, rep);
      for (const Unit* u : {&before, &traced, &after}) account(d, *u, rep);
      if (traced.digest != before.digest || after.digest != before.digest) {
        rep.errors.push_back("traced and untraced runs of one trace scheduled differently");
      }
      const std::vector<Span> spans = log.sorted();
      layer_metrics(d, spans, traced, d.threads, rep);
      rep.add("trace.overhead_frac", 2.0 * traced.run_s / (before.run_s + after.run_s) - 1.0,
              "fraction");
      rep.add("trace.run_s", traced.run_s, "s");
      if (!log.write_json(opt.work_dir + "/spans-" + d.name + ".json")) {
        rep.errors.push_back("could not write the span file");
      }
      rep.digest = rep.first_digest = traced.digest;
      rep.state_bytes = traced.state_bytes;
      return rep;
    }

    // Cheap setups repeat for half a second so their median is steady.
    std::vector<double> setups;
    const std::int64_t s0 = now_ns();
    while (static_cast<int>(setups.size()) + 1 < d.setups ||
           (seconds_since(s0) < 0.5 && setups.size() < 50)) {
      setups.push_back(setup_only(d, opt));
    }
    // A run is a fixed number of traces, each drawn from its own seed, so
    // the measured work is the same on every run of a seed and its
    // trace-to-trace variance averages out.
    const int k = std::max(1, static_cast<int>(std::lround(d.units * opt.seconds / kUnitSeconds)));
    std::vector<Unit> units;
    for (int i = 0; i < k; ++i) {
      RunOptions o = opt;
      o.seed = unit_seed(opt.seed, i);
      units.push_back(run_unit(d, o, nullptr, rep, i == 0 ? 3 : 1));
      account(d, units.back(), rep);
    }

    double run_s = 0, avg_jct_h = 0, makespan_h = 0, gpu_util = 0;
    std::vector<double> round_ms, recovery_s;
    for (std::size_t i = 0; i < units.size(); ++i) {
      const Unit& u = units[i];
      setups.push_back(u.setup_s);
      run_s += u.run_s;
      round_ms.insert(round_ms.end(), u.round_ms.begin(), u.round_ms.end());
      recovery_s.insert(recovery_s.end(), u.recovery_s.begin(), u.recovery_s.end());
      // The first trace's digest, with every further trace's folded in.
      rep.digest = i == 0 ? u.digest : fold_digest(rep.digest, static_cast<long long>(u.digest), {});
      avg_jct_h += u.result.avg_jct / kHour / k;
      makespan_h += last_completion(u.result) / kHour / k;
      gpu_util += u.result.gpu_utilization / k;
    }
    const Unit& u = units.front();
    rep.first_digest = u.digest;
    rep.state_bytes = u.state_bytes;

    rep.add("setup_s", median(setups), "s");
    rep.add("run_s", run_s, "s");
    rep.add("round_ms_p50", percentile(round_ms, 0.5), "ms");
    rep.add("round_ms_p90", percentile(round_ms, 0.9), "ms");
    rep.add("recovery_s", median(recovery_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("avg_jct_h", avg_jct_h, "h");
    rep.add("makespan_h", makespan_h, "h");
    rep.add("gpu_util", gpu_util, "fraction");

    percentile_rows(round_ms, rep);
    recompute_rows(d, units, rep);
    rep.notes.push_back(fmt("traces: %.0f, setups: %.0f, recoveries: %.0f (replayed %.0f rounds)",
                            static_cast<double>(units.size()), static_cast<double>(setups.size()),
                            static_cast<double>(recovery_s.size()),
                            static_cast<double>(u.replayed_rounds)));
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("run failed: ") + e.what());
    ++rep.failed;
  }
  return rep;
}

}  // namespace perfbench
