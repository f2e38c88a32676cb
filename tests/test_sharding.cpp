// Tests for sharded hierarchical scheduling (sim/sharded.hpp +
// cluster/cell_partition.hpp): partition quota conservation, the cells=1
// bit-identical passthrough for all four paper schedulers, thread-count
// invariance of multi-cell runs, migration invariants, config overlay
// fallbacks, and save/restore. This suite also runs under TSan in CI to
// pin the "per-cell solves share no mutable state" claim.
#include <gtest/gtest.h>

#include <cstdlib>

#include "cluster/allocation.hpp"
#include "cluster/cell_partition.hpp"
#include "common/binary.hpp"
#include "common/thread_pool.hpp"
#include "runner/experiment.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "workload/trace_gen.hpp"
#include "test_util.hpp"

namespace hadar {
namespace {

using cluster::ClusterSpec;
using common::ScopedThreadCount;
using sim::ShardConfig;
using sim::ShardedScheduler;
using test::ContextBuilder;

// ------------------------------------------------------------ partition ----

TEST(CellPartition, EveryNodeInExactlyOneCellAndCapacityConserved) {
  const ClusterSpec spec = ClusterSpec::scaled(20);  // 60 nodes, 240 GPUs
  for (const int k : {1, 2, 3, 7, 60}) {
    SCOPED_TRACE(k);
    const auto layout = cluster::partition_cells(spec, k);
    ASSERT_EQ(layout.num_cells, k);
    ASSERT_EQ(static_cast<int>(layout.cell_of_node.size()), spec.num_nodes());
    ASSERT_EQ(static_cast<int>(layout.nodes.size()), k);
    ASSERT_EQ(static_cast<int>(layout.specs.size()), k);

    std::vector<int> seen(static_cast<std::size_t>(spec.num_nodes()), 0);
    for (int c = 0; c < k; ++c) {
      const auto& cell_nodes = layout.nodes[static_cast<std::size_t>(c)];
      EXPECT_FALSE(cell_nodes.empty());
      const ClusterSpec& local = layout.specs[static_cast<std::size_t>(c)];
      ASSERT_EQ(local.num_nodes(), static_cast<int>(cell_nodes.size()));
      for (std::size_t i = 0; i < cell_nodes.size(); ++i) {
        const NodeId g = cell_nodes[i];
        ++seen[static_cast<std::size_t>(g)];
        EXPECT_EQ(layout.cell_of_node[static_cast<std::size_t>(g)], c);
        // Local node i mirrors global node g's capacities under a dense id.
        EXPECT_EQ(local.node(static_cast<NodeId>(i)).gpu_capacity,
                  spec.node(g).gpu_capacity);
      }
    }
    for (const int n : seen) EXPECT_EQ(n, 1);

    // Per-type totals are conserved, and the balanced deal gives every cell
    // a slice of every type pool (each cell sees the full heterogeneity mix).
    for (GpuTypeId r = 0; r < spec.num_types(); ++r) {
      int total = 0;
      for (int c = 0; c < k; ++c) {
        const int cell_total = layout.specs[static_cast<std::size_t>(c)].total_of_type(r);
        total += cell_total;
        if (k <= 3) {
          EXPECT_GT(cell_total, 0);
        }
      }
      EXPECT_EQ(total, spec.total_of_type(r));
    }
  }
}

TEST(CellPartition, DeterministicAndClamped) {
  const ClusterSpec spec = ClusterSpec::scaled(4);  // 12 nodes
  const auto a = cluster::partition_cells(spec, 3);
  const auto b = cluster::partition_cells(spec, 3);
  EXPECT_EQ(a.cell_of_node, b.cell_of_node);
  EXPECT_EQ(a.nodes, b.nodes);
  // More cells than nodes clamps to one node per cell.
  EXPECT_EQ(cluster::partition_cells(spec, 99).num_cells, 12);
}

TEST(CellPartition, AutoCellsScalesWithClusterSize) {
  EXPECT_EQ(cluster::auto_cells(0), 1);
  EXPECT_EQ(cluster::auto_cells(100), 1);
  EXPECT_EQ(cluster::auto_cells(256), 2);
  EXPECT_EQ(cluster::auto_cells(1000), 7);
  EXPECT_EQ(cluster::auto_cells(10000), 64);
  EXPECT_EQ(cluster::auto_cells(1000000), 64);
}

// ------------------------------------------------------------- identity ----

runner::ExperimentConfig scaled_experiment(int nodes_per_type, int num_jobs,
                                           std::uint64_t seed) {
  runner::ExperimentConfig cfg;
  cfg.spec = ClusterSpec::scaled(nodes_per_type);
  static const workload::ModelZoo zoo = workload::ModelZoo::paper_default();
  workload::TraceGenerator gen(&zoo, &cfg.spec.types());
  workload::TraceGenConfig tc;
  tc.num_jobs = num_jobs;
  tc.arrivals = workload::ArrivalPattern::kContinuous;
  tc.jobs_per_hour = 120.0;
  tc.seed = seed;
  cfg.trace = gen.generate(tc);
  cfg.sim.seed = seed;
  return cfg;
}

void expect_same_outcomes(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_jct, b.avg_jct);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_reallocations, b.total_reallocations);
  EXPECT_EQ(a.total_preemptions, b.total_preemptions);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].first_start, b.jobs[i].first_start);
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
    EXPECT_EQ(a.jobs[i].gpu_seconds, b.jobs[i].gpu_seconds);
    EXPECT_EQ(a.jobs[i].preemptions, b.jobs[i].preemptions);
    EXPECT_EQ(a.jobs[i].reallocations, b.jobs[i].reallocations);
  }
}

TEST(Sharding, CellsOneIsBitIdenticalForAllPaperSchedulers) {
  const auto cfg = scaled_experiment(6, 60, 17);
  for (const std::string& name : runner::kPaperSchedulers) {
    SCOPED_TRACE(name);
    auto flat = runner::make_flat_scheduler(name);
    auto sharded = runner::make_sharded_scheduler(name, ShardConfig{});
    EXPECT_EQ(sharded->name(), flat->name());

    sim::Simulator simulator(cfg.sim);
    const auto a = simulator.run(cfg.spec, cfg.trace, *flat);
    const auto b = simulator.run(cfg.spec, cfg.trace, *sharded);
    expect_same_outcomes(a, b);
  }
}

TEST(Sharding, MultiCellScheduleIdenticalAcrossThreadCounts) {
  const auto cfg = scaled_experiment(8, 70, 23);
  ShardConfig shard;
  shard.cells = 3;
  for (const std::string& name : {std::string("hadar"), std::string("gavel")}) {
    SCOPED_TRACE(name);
    sim::SimResult one, four;
    {
      ScopedThreadCount serial(1);
      sim::Simulator simulator(cfg.sim);
      auto sched = runner::make_sharded_scheduler(name, shard);
      one = simulator.run(cfg.spec, cfg.trace, *sched);
    }
    {
      ScopedThreadCount parallel(4);
      sim::Simulator simulator(cfg.sim);
      auto sched = runner::make_sharded_scheduler(name, shard);
      four = simulator.run(cfg.spec, cfg.trace, *sched);
    }
    expect_same_outcomes(one, four);
  }
}

// The simulator validates capacity and gang semantics of every round when
// validate_allocations is on (the default), so a full multi-cell run doubles
// as an allocation-invariant check across hundreds of rounds.
TEST(Sharding, MultiCellRunsPassSimulatorValidation) {
  const auto cfg = scaled_experiment(8, 60, 29);
  ASSERT_TRUE(cfg.sim.validate_allocations);
  for (const std::string& name : runner::kPaperSchedulers) {
    SCOPED_TRACE(name);
    ShardConfig shard;
    shard.cells = 4;
    sim::Simulator simulator(cfg.sim);
    auto sched = runner::make_sharded_scheduler(name, shard);
    const auto res = simulator.run(cfg.spec, cfg.trace, *sched);
    EXPECT_EQ(res.num_unfinished, 0);
  }
}

// ------------------------------------------------------------ migration ----

// 4 nodes x 4 V100-only; two cells of 8 devices. Three jobs: A (gang 8) and
// G (gang 4) both route to cell 0 (B's 12-worker gang makes cell 1 look
// loaded during routing), but together they exceed the cell — the policy
// places one and the other migrates to cell 1, which B (infeasible anywhere:
// 12 > 8) left empty.
TEST(Sharding, UnplaceableJobMigratesToCheaperCell) {
  const ClusterSpec spec = ClusterSpec::from_counts(
      cluster::GpuTypeRegistry::simulation_default(),
      {{4, 0, 0}, {4, 0, 0}, {4, 0, 0}, {4, 0, 0}});
  ContextBuilder builder(&spec);
  builder.add_job(8, 1e6, {4.0, 0.0, 0.0});   // A
  builder.add_job(12, 1e6, {4.0, 0.0, 0.0});  // B: no cell can fit it
  builder.add_job(4, 1e6, {4.0, 0.0, 0.0});   // G
  const auto ctx = builder.build();

  ShardConfig shard;
  shard.cells = 2;
  ShardedScheduler sched([] { return runner::make_flat_scheduler("hadar"); }, shard);
  const auto out = sched.schedule(ctx);

  ASSERT_NE(sched.layout(), nullptr);
  EXPECT_EQ(sched.num_cells(), 2);
  EXPECT_EQ(out.count(0), 1u);
  EXPECT_EQ(out.count(1), 0u);  // a 12-gang fits no 8-device cell
  EXPECT_EQ(out.count(2), 1u);
  EXPECT_EQ(sched.migrations(), 1);
  EXPECT_EQ(cluster::validate(spec, out), "");

  // Every allocation must stay inside a single cell, with exact gang size.
  const auto& layout = *sched.layout();
  for (const auto& [id, alloc] : out) {
    const int cell = layout.cell_of_node[static_cast<std::size_t>(
        alloc.placements().front().node)];
    for (const auto& p : alloc.placements()) {
      EXPECT_EQ(layout.cell_of_node[static_cast<std::size_t>(p.node)], cell);
    }
    EXPECT_EQ(alloc.total_workers(), ctx.jobs[static_cast<std::size_t>(id)].spec->num_workers);
    EXPECT_EQ(sched.cell_of_job(id), cell);
  }
}

TEST(Sharding, MigrationThresholdOneDisablesMigration) {
  const ClusterSpec spec = ClusterSpec::from_counts(
      cluster::GpuTypeRegistry::simulation_default(),
      {{4, 0, 0}, {4, 0, 0}, {4, 0, 0}, {4, 0, 0}});
  ContextBuilder builder(&spec);
  builder.add_job(8, 1e6, {4.0, 0.0, 0.0});
  builder.add_job(12, 1e6, {4.0, 0.0, 0.0});
  builder.add_job(4, 1e6, {4.0, 0.0, 0.0});
  const auto ctx = builder.build();

  ShardConfig shard;
  shard.cells = 2;
  shard.migration_threshold = 1.0;
  ShardedScheduler sched([] { return runner::make_flat_scheduler("hadar"); }, shard);
  const auto out = sched.schedule(ctx);
  EXPECT_EQ(sched.migrations(), 0);
  // Jobs 0 and 2 contend for cell 0; without migration only one runs.
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(cluster::validate(spec, out), "");
}

// ----------------------------------------------------------- durability ----

TEST(Sharding, SaveRestoreReproducesDecisions) {
  const ClusterSpec spec = ClusterSpec::scaled(4);  // 12 nodes
  ContextBuilder builder(&spec);
  for (int i = 0; i < 10; ++i) {
    builder.add_job(1 + i % 4, 1e5, {8.0, 4.0, 2.0});
  }
  const auto ctx = builder.build();

  ShardConfig shard;
  shard.cells = 3;
  const auto factory = [] { return runner::make_flat_scheduler("tiresias"); };
  ShardedScheduler original(factory, shard);
  (void)original.schedule(ctx);

  common::BinaryWriter w;
  original.save_state(w);

  ShardedScheduler restored(factory, shard);
  common::BinaryReader r(w.data());
  restored.restore_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.num_cells(), original.num_cells());
  EXPECT_EQ(restored.migrations(), original.migrations());

  const auto a = original.schedule(ctx);
  const auto b = restored.schedule(ctx);
  EXPECT_EQ(a, b);
}

// Persisted state is read back only by the build that wrote it (DESIGN.md
// §11): a well-formed payload in the retired version-1 layout is rejected,
// not migrated.
TEST(Sharding, RestoreRejectsVersionOneState) {
  ShardConfig shard;
  shard.cells = 3;
  const auto factory = [] { return runner::make_flat_scheduler("tiresias"); };
  common::BinaryWriter w;
  w.u8(1);   // version 1: entries without arrival guards
  w.i32(1);  // one resolved cell: the flat policy's state follows
  w.u64(1);  // topology version
  w.i64(0);  // migrations
  w.u32(0);  // sticky-routing entries
  w.u32(0);  // starvation entries
  factory()->save_state(w);

  ShardedScheduler sched(factory, shard);
  common::BinaryReader r(w.data());
  EXPECT_THROW(sched.restore_state(r), std::runtime_error);
}

TEST(Sharding, RejectsContextWithoutEpochs) {
  const ClusterSpec spec = ClusterSpec::scaled(4);  // 12 nodes
  ContextBuilder builder(&spec);
  builder.add_job(2, 1e5, {8.0, 4.0, 2.0});
  auto ctx = builder.build();

  ShardConfig shard;
  shard.cells = 2;
  ShardedScheduler sched([] { return runner::make_flat_scheduler("hadar"); }, shard);
  ctx.jobs_epoch = 0;
  EXPECT_THROW(sched.schedule(ctx), std::invalid_argument);
  ctx.jobs_epoch = 1;
  ctx.cluster_epoch = 0;
  EXPECT_THROW(sched.schedule(ctx), std::invalid_argument);
}

// ---------------------------------------------------------- bookkeeping ----

// Owns JobSpecs with caller-chosen ids and arrivals (ContextBuilder always
// numbers jobs from zero), so churn and id recycling are expressible. The
// caller passes the jobs_epoch, bumping it whenever it changes the job set.
class ChurnContext {
 public:
  explicit ChurnContext(const ClusterSpec* spec) : spec_(spec) {}

  ChurnContext& add(JobId id, Seconds arrival, int workers) {
    auto j = std::make_unique<workload::JobSpec>();
    j->id = id;
    j->model = "churn-" + std::to_string(id);
    j->arrival = arrival;
    j->num_workers = workers;
    j->epochs = 1000000;
    j->chunks_per_epoch = 1;
    j->throughput.assign(static_cast<std::size_t>(spec_->num_types()), 4.0);
    specs_.push_back(std::move(j));
    return *this;
  }

  sim::SchedulerContext build(Seconds now, std::uint64_t jobs_epoch) const {
    sim::SchedulerContext ctx;
    ctx.spec = spec_;
    ctx.now = now;
    ctx.round_length = 360.0;
    ctx.jobs_epoch = jobs_epoch;
    ctx.cluster_epoch = 1;
    for (const auto& s : specs_) {
      sim::JobView v;
      v.spec = s.get();
      v.throughput = s->throughput;
      v.rounds_on_type.assign(static_cast<std::size_t>(spec_->num_types()), 0);
      ctx.jobs.push_back(std::move(v));
    }
    return ctx;
  }

 private:
  const ClusterSpec* spec_;
  std::vector<std::unique_ptr<workload::JobSpec>> specs_;
};

// Service-mode churn: hundreds of jobs arrive and retire, yet the
// orchestrator's sticky-routing and starvation maps must stay sized by the
// *live* job set — persisted state must not grow with run history.
TEST(Sharding, ChurnWorkloadKeepsBookkeepingStateBounded) {
  const ClusterSpec spec = ClusterSpec::scaled(4);  // 12 nodes
  ShardConfig shard;
  shard.cells = 3;
  ShardedScheduler sched([] { return runner::make_flat_scheduler("yarn"); }, shard);

  const auto state_bytes = [&sched] {
    common::BinaryWriter w;
    sched.save_state(w);
    return w.data().size();
  };

  // Every round retires the previous window of jobs and admits a fresh one
  // (always-new ids), plus one gang no cell can ever fit (stays starved).
  std::size_t mid = 0;
  JobId next_id = 0;
  for (int round = 0; round < 40; ++round) {
    ChurnContext cc(&spec);
    cc.add(100000, 0.0, 64);  // unplaceable: exceeds the whole cluster
    for (int k = 0; k < 5; ++k) cc.add(next_id++, round * 360.0, 1 + k % 3);
    const auto ctx = cc.build(round * 360.0, static_cast<std::uint64_t>(round) + 1);
    (void)sched.schedule(ctx);
    if (round == 19) mid = state_bytes();
  }
  // 200 jobs churned through; state size at round 40 matches round 20.
  EXPECT_GT(mid, 0u);
  EXPECT_EQ(state_bytes(), mid);
  EXPECT_EQ(sched.starved_rounds(100000), 40);  // the live starved job
  EXPECT_EQ(sched.starved_rounds(0), 0);        // retired jobs are pruned
}

// A fresh job that recycles a finished job's id (external id allocators do
// this in service mode) must not inherit the dead job's starvation counter
// or sticky cell. Entries are guarded by the owning job's arrival time.
TEST(Sharding, RecycledJobIdGetsFreshRoutingAndStarvationCounter) {
  const ClusterSpec spec = ClusterSpec::from_counts(
      cluster::GpuTypeRegistry::simulation_default(),
      {{4, 0, 0}, {4, 0, 0}, {4, 0, 0}, {4, 0, 0}});
  ShardConfig shard;
  shard.cells = 2;
  shard.migration_threshold = 1.0;  // isolate routing from refinement
  shard.starvation_rounds = 0;
  ShardedScheduler sched([] { return runner::make_flat_scheduler("yarn"); }, shard);

  // Rounds 1-3: job 7 is an unplaceable 20-gang; its counter climbs.
  for (int round = 1; round <= 3; ++round) {
    ChurnContext cc(&spec);
    cc.add(7, 0.0, 20);
    (void)sched.schedule(cc.build(round * 360.0, 1));
    EXPECT_EQ(sched.starved_rounds(7), round);
  }

  // Round 4: id 7 now names a *new* job (later arrival). The counter
  // restarts at 1 instead of resuming at 4.
  {
    ChurnContext cc(&spec);
    cc.add(7, 1000.0, 20);
    (void)sched.schedule(cc.build(4 * 360.0, 2));
    EXPECT_EQ(sched.starved_rounds(7), 1);
  }

  // Sticky routing must likewise forget the dead job's cell. Round 1 parks
  // job 7 in cell 1 (the 8-gang fills cell 0 first). Round 2 loads both
  // cells equally with fresh 8-gangs, so least-load routing with its
  // low-cell tie-break sends a *fresh* job to cell 0 — the recycled id must
  // take that path, not the stale sticky entry for cell 1.
  sched.reset();
  {
    ChurnContext cc(&spec);
    cc.add(3, 0.0, 8);  // ties break low: routed to cell 0
    cc.add(7, 0.0, 2);  // load 8 vs 0: routed to cell 1
    (void)sched.schedule(cc.build(360.0, 3));
    EXPECT_EQ(sched.cell_of_job(3), 0);
    EXPECT_EQ(sched.cell_of_job(7), 1);
  }
  {
    ChurnContext cc(&spec);
    cc.add(9, 2000.0, 8);   // cell 0 (tie)
    cc.add(10, 2000.0, 8);  // cell 1
    cc.add(7, 2000.0, 2);   // recycled id: fresh tie-break -> cell 0
    (void)sched.schedule(cc.build(2160.0, 4));
    EXPECT_EQ(sched.cell_of_job(7), 0);
  }
}

// --------------------------------------------------------------- config ----

TEST(ShardConfig, FromEnvOverlaysAndFallsBackOnBadValues) {
  ::setenv("HADAR_CELLS", "4", 1);
  ::setenv("HADAR_CELL_MIGRATION", "0.25", 1);
  ShardConfig cfg = ShardConfig::from_env();
  EXPECT_EQ(cfg.cells, 4);
  EXPECT_EQ(cfg.migration_threshold, 0.25);

  // Bad values warn on stderr and keep the defaults (HADAR_SERVICE_* rule).
  ::setenv("HADAR_CELLS", "banana", 1);
  ::setenv("HADAR_CELL_MIGRATION", "2.5", 1);
  cfg = ShardConfig::from_env();
  EXPECT_EQ(cfg.cells, 1);
  EXPECT_EQ(cfg.migration_threshold, 0.05);

  ::setenv("HADAR_CELLS", "-3", 1);
  cfg = ShardConfig::from_env();
  EXPECT_EQ(cfg.cells, 1);

  ::unsetenv("HADAR_CELLS");
  ::unsetenv("HADAR_CELL_MIGRATION");
  cfg = ShardConfig::from_env();
  EXPECT_EQ(cfg.cells, 1);
  EXPECT_EQ(cfg.migration_threshold, 0.05);
}

TEST(ShardConfig, MakeSchedulerHonorsEnvOverlay) {
  ::setenv("HADAR_CELLS", "2", 1);
  auto sched = runner::make_scheduler("hadar");
  EXPECT_NE(sched->name().find("cells=2"), std::string::npos);
  ::unsetenv("HADAR_CELLS");
  auto flat = runner::make_scheduler("hadar");
  EXPECT_EQ(flat->name().find("cells"), std::string::npos);
}

}  // namespace
}  // namespace hadar
