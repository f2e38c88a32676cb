// Sharded hierarchical scheduling: a top-level orchestrator that partitions
// the cluster into scheduling cells (cluster/cell_partition.hpp), routes
// every runnable job to one cell, and runs an independent instance of the
// wrapped policy on each cell concurrently. Per-round cost drops from one
// O(solve(H, J)) decision to K parallel O(solve(H/K, J/K)) decisions — the
// decomposition that makes 10k-node rounds tractable.
//
// Contract highlights:
//  - cells == 1 is a pure passthrough: schedule()/name()/save_state() hit
//    the wrapped policy directly, so the result (and persisted state) is
//    bit-identical to running it unsharded.
//  - Determinism: cells are solved via common::parallel_map (results are
//    index-addressed) and merged in ascending cell order; job routing and
//    migration iterate jobs in context order. HADAR_THREADS=N therefore
//    produces the same schedule as HADAR_THREADS=1.
//  - Each cell owns a full scheduler instance created by the factory, so
//    per-cell warm solver state (Gavel's MaxMinContext, Tiresias queues)
//    falls out automatically and is never shared across threads.
//  - Job routing is sticky: a job stays in the cell where it currently holds
//    devices, else in its previously assigned cell; new jobs land on the
//    cell with the lowest assigned-demand/capacity ratio, which distributes
//    the per-round job quota proportionally to cell capacity.
//  - Cross-cell refinement: a job its home cell physically cannot fit (free
//    usable devices < gang size) migrates to the cheapest other cell — using
//    device-utilization as the marginal-price proxy — when that cell
//    undercuts the home cell's utilization by migration_threshold. Jobs the
//    inner policy *chose* to pause (e.g. Hadar's payoff filter) are never
//    second-guessed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cell_partition.hpp"
#include "cluster/cluster_state.hpp"
#include "common/arena.hpp"
#include "sim/scheduler.hpp"

namespace hadar::sim {

/// Knobs for ShardedScheduler. Overlay from the environment via from_env();
/// runner::make_scheduler applies it automatically (HADAR_CELLS).
struct ShardConfig {
  /// Number of cells. 1 = unsharded passthrough (the default); 0 = derive
  /// from cluster size via cluster::auto_cells(). Values above the node
  /// count are clamped by the partitioner.
  int cells = 1;
  /// Minimum utilization gap (fraction of devices in use, in [0, 1]) before
  /// an unplaceable job migrates to a cheaper cell. 1.0 disables migration.
  double migration_threshold = 0.05;
  /// Consecutive rounds a job may go unplaced by its cell's policy before
  /// the orchestrator force-places it greedily in the cheapest cell with
  /// room (ignoring the price threshold; 0 disables). This rescues gangs
  /// that are structurally unplaceable at cell granularity — e.g. a
  /// homogeneous-only policy whose gang exceeds every cell's single-type
  /// pool even though it fits the unsharded cluster.
  int starvation_rounds = 8;

  /// Overlays HADAR_CELLS / HADAR_CELL_MIGRATION onto `base` (defaults when
  /// omitted). Bad values warn on stderr and keep the base value
  /// (HADAR_SERVICE_* convention).
  static ShardConfig from_env(ShardConfig base);
  static ShardConfig from_env();
};

class ShardedScheduler final : public IScheduler {
 public:
  using Factory = std::function<SchedulerPtr()>;

  /// `factory` creates one instance of the wrapped policy per cell (plus the
  /// passthrough instance); it must produce identically configured
  /// schedulers on every call.
  ShardedScheduler(Factory factory, ShardConfig cfg = {});

  std::string name() const override;
  cluster::AllocationMap schedule(const SchedulerContext& ctx) override;
  void reset() override;
  void save_state(common::BinaryWriter& w) const override;
  void restore_state(common::BinaryReader& r) override;

  /// Resolved cell count (0 until the first schedule() when cells == auto).
  int num_cells() const { return resolved_cells_; }
  /// Current partition, or nullptr before the first multi-cell schedule().
  const cluster::CellLayout* layout() const {
    return layout_ ? &*layout_ : nullptr;
  }
  /// Cell a job was last routed to, or -1 when unknown.
  int cell_of_job(JobId id) const;
  /// Consecutive rounds the job has gone policy-unplaced (0 when placed or
  /// unknown). Exposed for the churn/bounded-state regression tests.
  int starved_rounds(JobId id) const;
  /// Cross-cell migrations performed since construction/reset().
  long long migrations() const { return migrations_; }

 private:
  struct Cell {
    SchedulerPtr scheduler;
    SchedulerContext ctx;              ///< reused across rounds (no realloc)
    common::Arena arena;               ///< round scratch for this cell's solve
    std::vector<JobId> last_ids;       ///< job set of the previous round
    std::uint64_t jobs_epoch = 1;      ///< bumped when last_ids changes
  };

  /// Resolves the cell count, (re)builds the partition when topology
  /// changed, and creates per-cell schedulers on first use.
  /// Throws std::invalid_argument on a context with a zero epoch.
  void ensure_cells(const SchedulerContext& ctx);
  /// Fills job_cell_[i] for every ctx.jobs[i] and refreshes home_.
  void route_jobs(const SchedulerContext& ctx);
  /// Rebuilds every cell's SchedulerContext from the global one.
  void build_cell_contexts(const SchedulerContext& ctx);
  /// Remaps a cell-local allocation into global node ids.
  cluster::JobAllocation to_global(int cell, const cluster::JobAllocation& a) const;

  Factory factory_;
  ShardConfig cfg_;
  SchedulerPtr flat_;  ///< passthrough instance; also provides name()

  /// Bookkeeping entry guarded by the owning job's arrival time: both maps
  /// are rebuilt from the live job set every round (so completed/killed jobs
  /// are pruned and state size stays bounded by the runnable set), and the
  /// arrival guard keeps a recycled JobId — a fresh job reusing a finished
  /// job's id in service mode — from inheriting the dead job's sticky cell
  /// or starvation counter.
  struct JobEntry {
    int value = 0;        ///< home cell, resp. consecutive unplaced rounds
    Seconds arrival = 0;  ///< arrival of the job this entry belongs to
  };
  /// True when `e` was recorded for this job and not for a finished job
  /// whose id got recycled.
  static bool same_job(const JobEntry& e, const JobView& j) {
    return e.arrival == j.spec->arrival;
  }

  /// The only persisted-state layout restore_state() accepts (2: entries
  /// carry their arrival guard).
  static constexpr std::uint8_t kStateVersion = 2;

  int resolved_cells_ = 0;
  std::optional<cluster::CellLayout> layout_;
  std::vector<Cell> cells_;
  std::map<JobId, JobEntry> home_;     ///< sticky job -> cell routing
  std::map<JobId, JobEntry> starved_;  ///< consecutive policy-unplaced rounds
  std::vector<int> job_cell_;          ///< per-round: cell of ctx.jobs[i]
  long long migrations_ = 0;

  /// Topology-change detection from the caller's cluster_epoch stream.
  std::uint64_t topo_version_ = 1;   ///< handed to cells as cluster_epoch
  std::uint64_t seen_cluster_epoch_ = 0;

  // Per-round merge/refinement scratch, persistent so the hot path stops
  // reconstructing K ClusterStates (and assorted vectors) every round.
  // merge_state_ is reused only while it still points at the live layout's
  // cell specs; a repartition rebuilds it.
  std::vector<cluster::ClusterState> merge_state_;
  std::vector<double> merge_used_;
  std::vector<double> route_load_;
  std::vector<double> route_cap_;
  std::vector<double> mig_cap_;
  std::vector<int> mig_order_;
};

}  // namespace hadar::sim
