#include "sim/sharded.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/cluster_state.hpp"
#include "cluster/placement.hpp"
#include "common/binary.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace hadar::sim {

namespace {

/// Usable GPU types of a job ordered best-first (throughput desc, id asc) —
/// the fill order the migration pass hands to take_in_type_order().
std::vector<GpuTypeId> type_order_for(const JobView& j, int num_types) {
  std::vector<GpuTypeId> order;
  for (GpuTypeId r = 0; r < num_types; ++r) {
    if (j.throughput_on(r) > 0.0) order.push_back(r);
  }
  std::sort(order.begin(), order.end(), [&j](GpuTypeId a, GpuTypeId b) {
    const double xa = j.throughput_on(a), xb = j.throughput_on(b);
    return xa != xb ? xa > xb : a < b;
  });
  return order;
}

}  // namespace

ShardConfig ShardConfig::from_env() { return from_env(ShardConfig{}); }

ShardConfig ShardConfig::from_env(ShardConfig base) {
  ShardConfig cfg = base;
  // 0 = auto-size from the cluster; negative / garbage values warn + fall
  // back, mirroring the HADAR_SERVICE_* convention.
  cfg.cells = common::env_int("HADAR_CELLS", base.cells, 0);
  cfg.migration_threshold =
      common::env_double("HADAR_CELL_MIGRATION", base.migration_threshold, 0.0, 1.0);
  return cfg;
}

ShardedScheduler::ShardedScheduler(Factory factory, ShardConfig cfg)
    : factory_(std::move(factory)), cfg_(cfg) {
  if (!factory_) throw std::invalid_argument("ShardedScheduler: null factory");
  if (cfg_.cells < 0) cfg_.cells = 1;
  flat_ = factory_();
  if (!flat_) throw std::invalid_argument("ShardedScheduler: factory returned null");
}

std::string ShardedScheduler::name() const {
  if (cfg_.cells == 1) return flat_->name();
  const int k = resolved_cells_ > 0 ? resolved_cells_ : cfg_.cells;
  return flat_->name() + "[cells=" + (k > 0 ? std::to_string(k) : "auto") + "]";
}

int ShardedScheduler::cell_of_job(JobId id) const {
  const auto it = home_.find(id);
  return it == home_.end() ? -1 : it->second.value;
}

int ShardedScheduler::starved_rounds(JobId id) const {
  const auto it = starved_.find(id);
  return it == starved_.end() ? 0 : it->second.value;
}

void ShardedScheduler::reset() {
  flat_->reset();
  cells_.clear();
  layout_.reset();
  home_.clear();
  starved_.clear();
  job_cell_.clear();
  migrations_ = 0;
  resolved_cells_ = 0;
  topo_version_ = 1;
  seen_cluster_epoch_ = 0;
  merge_state_.clear();  // held spec pointers die with layout_
}

void ShardedScheduler::ensure_cells(const SchedulerContext& ctx) {
  const cluster::ClusterSpec& spec = *ctx.spec;
  const int want = cfg_.cells == 0 ? cluster::auto_cells(spec.num_nodes()) : cfg_.cells;
  const int K = std::clamp(want, 1, std::max(1, spec.num_nodes()));

  // Topology-change detection: the caller bumps cluster_epoch exactly when
  // capacities change.
  require_epochs(ctx, "ShardedScheduler");
  const bool changed = seen_cluster_epoch_ != 0 && ctx.cluster_epoch != seen_cluster_epoch_;
  seen_cluster_epoch_ = ctx.cluster_epoch;

  if (layout_ && !changed && resolved_cells_ == K) return;
  if (layout_) ++topo_version_;  // repartition invalidates cell-local caches

  resolved_cells_ = K;
  layout_ = cluster::partition_cells(spec, K);
  if (static_cast<int>(cells_.size()) != K) {
    // First multi-cell round (or a resize): give every cell its own policy
    // instance so warm solver state is cell-private. restore_state() may
    // have pre-built these.
    cells_.clear();
    if (K > 1) {
      cells_.resize(static_cast<std::size_t>(K));
      for (auto& cell : cells_) {
        cell.scheduler = factory_();
        if (!cell.scheduler) {
          throw std::runtime_error("ShardedScheduler: factory returned null");
        }
      }
    }
  }
}

void ShardedScheduler::route_jobs(const SchedulerContext& ctx) {
  const cluster::CellLayout& L = *layout_;
  const int K = resolved_cells_;
  job_cell_.assign(ctx.jobs.size(), -1);

  auto& load = route_load_;
  auto& cap = route_cap_;
  load.assign(static_cast<std::size_t>(K), 0.0);
  cap.assign(static_cast<std::size_t>(K), 1.0);
  for (int c = 0; c < K; ++c) {
    cap[static_cast<std::size_t>(c)] = std::max(1, L.cell_capacity(c));
  }

  std::map<JobId, JobEntry> fresh;

  // Pass 1 — forced and sticky routing. A job holding devices is pinned to
  // the cell that owns them (preempting it to rebalance would burn a
  // reallocation penalty the policy never asked for); a known job keeps its
  // previous cell so per-cell policy state stays meaningful. "Known" means
  // the sticky entry's arrival matches: a recycled JobId belongs to a new
  // job and must be routed fresh, not sent to the dead job's cell.
  for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
    const JobView& j = ctx.jobs[i];
    int cell = -1;
    const auto& ps = j.current_allocation.placements();
    if (!ps.empty()) {
      cell = L.cell_of_node[static_cast<std::size_t>(ps.front().node)];
      for (const auto& p : ps) {
        if (L.cell_of_node[static_cast<std::size_t>(p.node)] != cell) {
          cell = -1;  // spans cells (stale after a repartition): re-route
          break;
        }
      }
    }
    if (cell < 0) {
      const auto it = home_.find(j.id());
      if (it != home_.end() && same_job(it->second, j) && it->second.value >= 0 &&
          it->second.value < K) {
        cell = it->second.value;
      }
    }
    if (cell >= 0) {
      job_cell_[i] = cell;
      load[static_cast<std::size_t>(cell)] += j.spec->num_workers;
      fresh.emplace(j.id(), JobEntry{cell, j.spec->arrival});
    }
  }

  // Pass 2 — new jobs land on the least-loaded cell relative to capacity,
  // distributing the round's job quota proportionally to cell size.
  for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
    if (job_cell_[i] >= 0) continue;
    const JobView& j = ctx.jobs[i];
    int best = 0;
    for (int c = 1; c < K; ++c) {
      const auto bc = static_cast<std::size_t>(best);
      const auto cc = static_cast<std::size_t>(c);
      if (load[cc] / cap[cc] < load[bc] / cap[bc]) best = c;
    }
    job_cell_[i] = best;
    load[static_cast<std::size_t>(best)] += j.spec->num_workers;
    fresh.emplace(j.id(), JobEntry{best, j.spec->arrival});
  }

  home_.swap(fresh);
}

void ShardedScheduler::build_cell_contexts(const SchedulerContext& ctx) {
  const cluster::CellLayout& L = *layout_;
  const int K = resolved_cells_;

  for (int c = 0; c < K; ++c) {
    Cell& cell = cells_[static_cast<std::size_t>(c)];
    cell.ctx.spec = &L.specs[static_cast<std::size_t>(c)];
    cell.ctx.now = ctx.now;
    cell.ctx.round_length = ctx.round_length;
    cell.ctx.network = ctx.network;
    cell.ctx.jobs.clear();
    // Each cell solves on its own round-scratch arena (cells run on separate
    // pool lanes; arenas are single-threaded). Re-attached every round
    // because vector<Cell> growth moves cells.
    cell.arena.reset();
    cell.ctx.arena = &cell.arena;
  }

  for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
    const int c = job_cell_[i];
    Cell& cell = cells_[static_cast<std::size_t>(c)];
    cell.ctx.jobs.push_back(ctx.jobs[i]);
    JobView& v = cell.ctx.jobs.back();
    const auto& ps = v.current_allocation.placements();
    if (ps.empty()) continue;
    // Remap the held allocation into cell-local node ids; an allocation that
    // is no longer fully inside the cell reads as "paused" to the policy.
    const auto& cell_nodes = L.nodes[static_cast<std::size_t>(c)];
    std::vector<cluster::TaskPlacement> local;
    local.reserve(ps.size());
    bool ok = true;
    for (const auto& p : ps) {
      const auto it = std::lower_bound(cell_nodes.begin(), cell_nodes.end(), p.node);
      if (it == cell_nodes.end() || *it != p.node) {
        ok = false;
        break;
      }
      local.push_back(cluster::TaskPlacement{
          static_cast<NodeId>(it - cell_nodes.begin()), p.type, p.count});
    }
    v.current_allocation =
        ok ? cluster::JobAllocation(std::move(local)) : cluster::JobAllocation();
  }

  // Per-cell epochs: bump jobs_epoch exactly when the cell's job set changed,
  // so inner policies keep their cheap no-change round path.
  for (int c = 0; c < K; ++c) {
    Cell& cell = cells_[static_cast<std::size_t>(c)];
    bool same = cell.ctx.jobs.size() == cell.last_ids.size();
    if (same) {
      for (std::size_t i = 0; i < cell.ctx.jobs.size(); ++i) {
        if (cell.ctx.jobs[i].id() != cell.last_ids[i]) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      ++cell.jobs_epoch;
      cell.last_ids.clear();
      for (const auto& j : cell.ctx.jobs) cell.last_ids.push_back(j.id());
    }
    cell.ctx.jobs_epoch = cell.jobs_epoch;
    cell.ctx.cluster_epoch = topo_version_;
  }
}

cluster::JobAllocation ShardedScheduler::to_global(int cell,
                                                   const cluster::JobAllocation& a) const {
  const auto& cell_nodes = layout_->nodes[static_cast<std::size_t>(cell)];
  std::vector<cluster::TaskPlacement> ps = a.placements();
  for (auto& p : ps) p.node = cell_nodes[static_cast<std::size_t>(p.node)];
  return cluster::JobAllocation(std::move(ps));
}

cluster::AllocationMap ShardedScheduler::schedule(const SchedulerContext& ctx) {
  if (cfg_.cells == 1) return flat_->schedule(ctx);
  if (ctx.spec == nullptr) throw std::invalid_argument("ShardedScheduler: null spec");
  ensure_cells(ctx);
  if (resolved_cells_ <= 1) return flat_->schedule(ctx);

  obs::ScopedSpan span("sched", "shard.schedule", 1);
  const int K = resolved_cells_;
  const cluster::CellLayout& L = *layout_;
  span.arg("cells", K);
  span.arg("jobs", static_cast<double>(ctx.jobs.size()));

  route_jobs(ctx);
  build_cell_contexts(ctx);

  // Solve every cell concurrently. Results are index-addressed, so the merge
  // below is independent of scheduling order across threads.
  auto locals = common::parallel_map(static_cast<std::size_t>(K), [this](std::size_t c) {
    obs::ScopedSpan cell_span("sched", "shard.cell", 1);
    Cell& cell = cells_[c];
    cell_span.arg("cell", static_cast<double>(c));
    cell_span.arg("jobs", static_cast<double>(cell.ctx.jobs.size()));
    return cell.scheduler->schedule(cell.ctx);
  });

  // Deterministic merge in ascending cell order; keep cell-local usage
  // states around for the refinement pass. The states are persistent
  // scratch: while the layout is unchanged they are clear()ed in place
  // instead of reconstructed (K usage-vector allocations per round saved);
  // a repartition (new spec objects) rebuilds them.
  cluster::AllocationMap out;
  auto& state = merge_state_;
  bool reuse = static_cast<int>(state.size()) == K;
  for (int c = 0; reuse && c < K; ++c) {
    reuse = &state[static_cast<std::size_t>(c)].spec() == &L.specs[static_cast<std::size_t>(c)];
  }
  if (!reuse) {
    state.clear();
    state.reserve(static_cast<std::size_t>(K));
    for (int c = 0; c < K; ++c) state.emplace_back(&L.specs[static_cast<std::size_t>(c)]);
  } else {
    for (auto& s : state) s.clear();
  }
  auto& used = merge_used_;
  used.assign(static_cast<std::size_t>(K), 0.0);
  for (int c = 0; c < K; ++c) {
    for (const auto& [id, alloc] : locals[static_cast<std::size_t>(c)]) {
      state[static_cast<std::size_t>(c)].allocate(alloc);
      used[static_cast<std::size_t>(c)] += alloc.total_workers();
      out.emplace(id, to_global(c, alloc));
    }
  }

  // Track per-job starvation: rounds in a row the cell's policy left the
  // job unplaced. A starved job is a structural casualty of sharding (its
  // gang may not fit any cell the way the policy wants to place it), so the
  // refinement below eventually force-places it. Rebuilding the map from
  // the live job set prunes completed/killed jobs; the arrival guard keeps
  // a recycled id from resuming the dead job's count mid-way.
  {
    std::map<JobId, JobEntry> fresh;
    for (const auto& j : ctx.jobs) {
      if (out.count(j.id()) != 0) continue;
      const auto it = starved_.find(j.id());
      const int prev =
          it != starved_.end() && same_job(it->second, j) ? it->second.value : 0;
      fresh.emplace(j.id(), JobEntry{prev + 1, j.spec->arrival});
    }
    starved_.swap(fresh);
  }

  // Cross-cell refinement: move jobs their home cell physically cannot fit
  // to the cheapest other cell. Device utilization stands in for the cell's
  // marginal price; the threshold keeps borderline moves (and ping-ponging)
  // out. Jobs the policy paused despite available capacity stay paused —
  // that was an admission decision, not a capacity limit — unless they have
  // starved past starvation_rounds, in which case the orchestrator places
  // them greedily wherever they fit, home cell and threshold included.
  long long moved = 0;
  if (cfg_.migration_threshold < 1.0 || cfg_.starvation_rounds > 0) {
    auto& cap = mig_cap_;
    cap.assign(static_cast<std::size_t>(K), 1.0);
    for (int c = 0; c < K; ++c) {
      cap[static_cast<std::size_t>(c)] = std::max(1, L.cell_capacity(c));
    }
    auto& order = mig_order_;
    order.assign(static_cast<std::size_t>(K), 0);
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
      const JobView& j = ctx.jobs[i];
      if (out.count(j.id()) != 0) continue;
      const int home = job_cell_[i];
      const int W = j.spec->num_workers;
      const auto usable = type_order_for(j, ctx.spec->num_types());
      if (usable.empty()) continue;
      int home_free = 0;
      for (const GpuTypeId r : usable) {
        home_free += state[static_cast<std::size_t>(home)].total_free_of_type(r);
      }
      const auto sit = starved_.find(j.id());
      const bool starving = cfg_.starvation_rounds > 0 && sit != starved_.end() &&
                            sit->second.value >= cfg_.starvation_rounds;
      const bool cramped = home_free < W && cfg_.migration_threshold < 1.0;
      if (!cramped && !starving) continue;  // the policy chose to pause this job

      const double home_util = used[static_cast<std::size_t>(home)] /
                               cap[static_cast<std::size_t>(home)];
      for (int c = 0; c < K; ++c) order[static_cast<std::size_t>(c)] = c;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const double ua = used[static_cast<std::size_t>(a)] / cap[static_cast<std::size_t>(a)];
        const double ub = used[static_cast<std::size_t>(b)] / cap[static_cast<std::size_t>(b)];
        return ua != ub ? ua < ub : a < b;
      });
      for (const int cand : order) {
        if (cand == home && !starving) continue;
        const double cand_util = used[static_cast<std::size_t>(cand)] /
                                 cap[static_cast<std::size_t>(cand)];
        if (!starving && home_util - cand_util < cfg_.migration_threshold) {
          break;  // sorted by price: no better candidate follows
        }
        auto got = cluster::take_in_type_order(state[static_cast<std::size_t>(cand)],
                                               usable, W);
        if (!got) continue;
        state[static_cast<std::size_t>(cand)].allocate(*got);
        used[static_cast<std::size_t>(cand)] += W;
        out.emplace(j.id(), to_global(cand, *got));
        if (cand != home) {
          home_[j.id()] = JobEntry{cand, j.spec->arrival};
          job_cell_[i] = cand;
          ++moved;
        }
        break;
      }
    }
  }
  migrations_ += moved;

  span.arg("migrations", static_cast<double>(moved));
  if (obs::tracing()) {
    obs::count("shard.rounds");
    obs::gauge_set("shard.cells", K);
    if (moved > 0) obs::count("shard.migrations", static_cast<std::uint64_t>(moved));
  }
  return out;
}

void ShardedScheduler::save_state(common::BinaryWriter& w) const {
  if (cfg_.cells == 1) {
    // Passthrough stays byte-compatible with the unsharded policy's state.
    flat_->save_state(w);
    return;
  }
  w.u8(kStateVersion);
  w.i32(resolved_cells_);
  w.u64(topo_version_);
  w.i64(migrations_);
  for (const auto* entries : {&home_, &starved_}) {
    w.u32(static_cast<std::uint32_t>(entries->size()));
    for (const auto& [id, e] : *entries) {
      w.i32(id);
      w.i32(e.value);
      w.f64(e.arrival);
    }
  }
  if (resolved_cells_ > 1) {
    for (const Cell& cell : cells_) {
      w.u64(cell.jobs_epoch);
      common::write_i32_vector(w, cell.last_ids);
      cell.scheduler->save_state(w);
    }
  } else {
    flat_->save_state(w);
  }
}

void ShardedScheduler::restore_state(common::BinaryReader& r) {
  if (cfg_.cells == 1) {
    flat_->restore_state(r);
    return;
  }
  // State is read back only by the build that wrote it (DESIGN.md §11):
  // any other version is rejected, never migrated.
  const std::uint8_t version = r.u8();
  if (version != kStateVersion) {
    throw std::runtime_error("ShardedScheduler: unsupported state version " +
                             std::to_string(version));
  }
  resolved_cells_ = r.i32();
  topo_version_ = r.u64();
  migrations_ = r.i64();
  const auto read_entries = [&r](std::map<JobId, JobEntry>& out) {
    out.clear();
    for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
      const JobId id = r.i32();
      const int value = r.i32();
      out.emplace(id, JobEntry{value, r.f64()});
    }
  };
  read_entries(home_);
  read_entries(starved_);
  cells_.clear();
  layout_.reset();  // rebuilt from the spec on the next schedule()
  seen_cluster_epoch_ = 0;
  if (resolved_cells_ > 1) {
    cells_.resize(static_cast<std::size_t>(resolved_cells_));
    for (Cell& cell : cells_) {
      cell.scheduler = factory_();
      if (!cell.scheduler) throw std::runtime_error("ShardedScheduler: factory returned null");
      cell.jobs_epoch = r.u64();
      cell.last_ids = common::read_i32_vector(r);
      cell.scheduler->restore_state(r);
    }
  } else {
    flat_->restore_state(r);
  }
}

}  // namespace hadar::sim
