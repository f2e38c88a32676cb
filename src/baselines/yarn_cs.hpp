// YARN capacity scheduler (YARN-CS [6]) baseline as configured in the
// paper: a single-queue FIFO, NON-preemptive scheduler, expressed as a
// round pipeline. A job admitted to the cluster keeps exactly the same
// devices until it finishes; the queue head blocks until its full gang fits
// (head-of-line blocking), which is what costs YARN-CS its 7-15x JCT gap
// despite near-perfect GPU utilization.
//
// Stage split: the admission stage owns the sticky running set — it prunes
// finished jobs, re-commits every surviving placement, and queues only the
// waiting jobs; the shared FIFO priority stage ranks them in arrival order;
// the shared greedy placement stage packs with take_unaware(), stopping at
// the first failure (head-of-line blocking) unless backfill is on, and
// records every new placement back into the running set via the placement
// hook.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "pipeline/staged_scheduler.hpp"

namespace hadar::baselines {

struct YarnConfig {
  /// Strict FIFO (paper configuration): the queue head blocks everyone
  /// behind it. With backfill enabled, later jobs that fit may be admitted
  /// while the head waits — the common production tuning knob.
  bool backfill = false;
};

/// Admission: the non-preemptive running set. Surviving placements are
/// pinned straight into state/result; everything else queues FIFO. Throws
/// std::invalid_argument on a context with a zero epoch.
class YarnAdmissionStage final : public pipeline::IAdmissionStage {
 public:
  std::string name() const override { return "yarn.admission"; }
  void admit(pipeline::RoundState& rs) override;
  void reset() override;
  void save_state(common::BinaryWriter& w) const override;
  void restore_state(common::BinaryReader& r) override;

  /// The placement stage's hook target: a freshly admitted job becomes
  /// sticky from the next round on.
  void note_placed(JobId id, const cluster::JobAllocation& alloc);

 private:
  std::map<JobId, cluster::JobAllocation> running_;
  std::uint64_t last_epoch_ = 0;  // skip the finished-job prune when unchanged
};

class YarnCsScheduler final : public pipeline::StagedScheduler {
 public:
  explicit YarnCsScheduler(YarnConfig cfg = {});
};

}  // namespace hadar::baselines
