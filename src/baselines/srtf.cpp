#include "baselines/srtf.hpp"

#include <algorithm>

#include "cluster/placement.hpp"

namespace hadar::baselines {

std::string SrtfScheduler::name() const { return "SRTF"; }

cluster::AllocationMap SrtfScheduler::schedule(const sim::SchedulerContext& ctx) {
  std::vector<const sim::JobView*> order;
  order.reserve(ctx.jobs.size());
  for (const auto& job : ctx.jobs) order.push_back(&job);

  auto remaining_time = [](const sim::JobView* j) {
    const double x = j->max_throughput();
    return x > 0.0 ? j->remaining_iterations() / (x * j->spec->num_workers)
                   : kInfiniteTime;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const sim::JobView* a, const sim::JobView* b) {
                     return remaining_time(a) < remaining_time(b);
                   });

  cluster::ClusterState state(ctx.spec);
  cluster::AllocationMap result;
  for (const sim::JobView* job : order) {
    // Fastest usable types first.
    std::vector<GpuTypeId> usable;
    for (GpuTypeId r = 0; r < ctx.spec->num_types(); ++r) {
      if (job->throughput_on(r) > 0.0) usable.push_back(r);
    }
    std::sort(usable.begin(), usable.end(), [&](GpuTypeId a, GpuTypeId b) {
      return job->throughput_on(a) > job->throughput_on(b);
    });
    auto alloc = cluster::take_in_type_order(state, usable, job->spec->num_workers);
    if (!alloc) continue;
    state.allocate(*alloc);
    result.emplace(job->id(), std::move(*alloc));
  }
  return result;
}

}  // namespace hadar::baselines
