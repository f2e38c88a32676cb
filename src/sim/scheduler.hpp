// The scheduler abstraction every policy implements (Hadar and all
// baselines). Once per round the simulator hands the scheduler a context —
// cluster spec plus a view of every runnable job (static spec + dynamic
// progress) — and receives the round's task-level allocation map.
//
// Schedulers may keep internal state across rounds (Gavel's LP cache,
// Tiresias' queues); reset() is invoked at the start of every simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/allocation.hpp"
#include "sim/network.hpp"
#include "cluster/cluster_spec.hpp"
#include "workload/job.hpp"

namespace hadar::common {
class Arena;
class BinaryWriter;
class BinaryReader;
}  // namespace hadar::common

namespace hadar::sim {

/// Dynamic view of one runnable job as of the current round.
struct JobView {
  const workload::JobSpec* spec = nullptr;

  double iterations_done = 0.0;
  /// GPU-seconds of service received so far (Tiresias' attained service).
  double attained_service = 0.0;
  /// Rounds in which the job held any allocation.
  int rounds_received = 0;
  /// Rounds received per GPU type (Gavel's priority denominator).
  std::vector<int> rounds_on_type;
  /// Allocation held in the previous round (empty if paused/new).
  cluster::JobAllocation current_allocation;
  /// Observable per-type throughput (oracle values, or noisy estimates when
  /// the simulator's profiling mode is enabled). Same arity as GPU types.
  std::vector<double> throughput;

  JobId id() const { return spec->id; }
  double remaining_iterations() const {
    const double rem = spec->total_iterations() - iterations_done;
    return rem > 0.0 ? rem : 0.0;
  }
  double throughput_on(GpuTypeId r) const {
    return (r >= 0 && static_cast<std::size_t>(r) < throughput.size())
               ? throughput[static_cast<std::size_t>(r)]
               : 0.0;
  }
  double max_throughput() const {
    double x = 0.0;
    for (double v : throughput) x = x > v ? x : v;
    return x;
  }
};

/// Everything a scheduler may inspect when making a round decision.
struct SchedulerContext {
  const cluster::ClusterSpec* spec = nullptr;
  Seconds now = 0.0;
  Seconds round_length = 360.0;
  /// Throughput multiplier per extra node a placement spans (models the
  /// synchronization traffic of non-consolidated placements).
  NetworkModel network;
  /// Bumped whenever the runnable-job set changes (an arrival is admitted or
  /// a job finishes), so schedulers can skip re-deriving job-set-dependent
  /// state on the common no-change round. Every context must carry one: the
  /// stream starts at 1, and 0 marks a malformed context (see
  /// require_epochs). Whoever builds a context by hand stamps it.
  std::uint64_t jobs_epoch = 0;
  /// Bumped whenever cluster topology changes (a node fails/recovers or a
  /// device degrades/restores), so schedulers invalidate capacity-dependent
  /// caches (warm-started LP bases, sticky allocations). Mandatory and
  /// nonzero, like jobs_epoch.
  std::uint64_t cluster_epoch = 0;
  /// Runnable jobs: arrived and not finished. Order is arrival order.
  std::vector<JobView> jobs;
  /// Round-local scratch arena, reset by the context's owner at the start of
  /// every round. Null for hand-built contexts (tests): arena-backed
  /// containers then fall back to the heap. Nothing allocated from it may
  /// outlive the round (see common/arena.hpp).
  common::Arena* arena = nullptr;

  const JobView* find(JobId id) const {
    for (const auto& j : jobs) {
      if (j.id() == id) return &j;
    }
    return nullptr;
  }
};

/// Rejects a context without epochs. Schedulers that key cached state on
/// jobs_epoch / cluster_epoch call this before trusting them, so a context
/// that forgot to stamp them fails loudly instead of reusing stale state.
inline void require_epochs(const SchedulerContext& ctx, const char* who) {
  if (ctx.jobs_epoch == 0 || ctx.cluster_epoch == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": SchedulerContext has a zero jobs_epoch or cluster_epoch");
  }
}

/// Round-based scheduling policy.
class IScheduler {
 public:
  virtual ~IScheduler() = default;

  virtual std::string name() const = 0;

  /// Computes the allocation for the round starting at ctx.now. Jobs absent
  /// from the returned map are paused. Every returned allocation must respect
  /// gang semantics (exactly W_j workers) and cluster capacity.
  virtual cluster::AllocationMap schedule(const SchedulerContext& ctx) = 0;

  /// Clears internal state; called before every simulation run.
  virtual void reset() {}

  /// Persists the cross-round decision state (queue demotions, time-fraction
  /// targets, sticky placements, estimator tracks, ...) so a restored
  /// scheduler reproduces the exact decisions of the original. Speed-only
  /// caches (warm LP bases, scratch buffers) that cannot change decisions
  /// need not be saved. The default is for stateless policies; any policy
  /// whose schedule() reads state written by a previous round MUST override
  /// both hooks. restore_state() is always called on a freshly reset()
  /// instance constructed with the same parameters.
  virtual void save_state(common::BinaryWriter&) const {}
  virtual void restore_state(common::BinaryReader&) {}
};

using SchedulerPtr = std::unique_ptr<IScheduler>;

}  // namespace hadar::sim
