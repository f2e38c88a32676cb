// Greedy gang-placement helpers shared by the baseline schedulers, the
// pipeline's greedy placement stage, and the sharded scheduler's cross-cell
// migration pass: gang-sized grabs of free devices with consolidation-first
// node choice. They live in cluster/ so every layer above it can use them.
#pragma once

#include <optional>
#include <vector>

#include "cluster/cluster_state.hpp"

namespace hadar::cluster {

/// Takes exactly `workers` type-`r` devices, preferring nodes with the most
/// free devices of that type (fewest nodes spanned). nullopt if infeasible.
std::optional<JobAllocation> take_homogeneous(const ClusterState& state, GpuTypeId r,
                                              int workers);

/// Takes exactly `workers` devices following `type_order` (devices of
/// type_order[0] first, then type_order[1], ...), consolidation-first within
/// each type. May mix types. nullopt if infeasible.
std::optional<JobAllocation> take_in_type_order(const ClusterState& state,
                                                const std::vector<GpuTypeId>& type_order,
                                                int workers);

/// Heterogeneity-unaware gang fill as a production scheduler would do it:
/// prefer a single device pool (the usable type with the most free devices
/// that fits the whole gang — device affinity, no throughput awareness),
/// fall back to mixing types only when no single pool fits.
std::optional<JobAllocation> take_unaware(const ClusterState& state,
                                          const std::vector<GpuTypeId>& usable,
                                          int workers);

}  // namespace hadar::cluster
