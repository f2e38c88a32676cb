// Measurement plumbing of the benchmark: an in-memory span log, the
// forwarding IScheduler decorator that records schedule/cell/stage spans
// around the library's public entry points, the schedule digest, and the
// percentile helper. Nothing here changes what the scheduler decides: the
// decorator forwards every call, and the self-test pins that.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/allocation.hpp"
#include "core/hadar_scheduler.hpp"
#include "pipeline/staged_scheduler.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

enum class SpanKind : std::uint8_t {
  kRound,     ///< one step() / run_round(); args: round, runnable, scheduled, finished
  kSchedule,  ///< the top-level schedule() call; parent = round
  kCell,      ///< one cell's schedule() under sharding; parent = schedule
  kStage,     ///< one pipeline stage; parent = cell or schedule; arg0 = stage index
  kPhase,     ///< a named one-off phase (trace_gen, admit, finalize, snapshot, ...)
};

/// One recorded span. Stage spans carry the stage's measured duration laid
/// end to end from their parent's start: the program reports stage totals
/// (StagedScheduler::stage_seconds), not stage boundaries.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  SpanKind kind = SpanKind::kPhase;
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double arg[7] = {0, 0, 0, 0, 0, 0, 0};

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Round-span argument slots.
enum RoundArg : int {
  kArgRound = 0,
  kArgRunnable = 1,
  kArgScheduled = 2,
  kArgFinished = 3,
  kArgAdmitted = 4,
  kArgFlags = 5,  ///< bit 0: full-recompute round, bit 1: job set changed
  kArgEngineScheduleMs = 6,  ///< RoundOutcome::schedule_seconds, in ms
};
inline constexpr int kFlagRecompute = 1;
inline constexpr int kFlagJobSetChanged = 2;

/// Schedule/cell-span argument slots (besides arg0 = jobs in the context).
inline constexpr int kArgDpStates = 1;
inline constexpr int kArgDpTail = 2;

/// Spans kept in memory for the whole run and written once at exit. add()
/// may be called from pool workers (cell spans), so it takes a mutex.
class SpanLog {
 public:
  std::uint32_t reserve() { return next_.fetch_add(1, std::memory_order_relaxed); }
  void add(const Span* spans, std::size_t n);
  void add(const Span& s) { add(&s, 1); }
  /// Spans sorted by id. Call only after parallel work has joined.
  std::vector<Span> sorted() const;
  /// Chrome trace-event JSON (one "X" event per span, parent linked).
  bool write_json(const std::string& path) const;

  /// Parent for schedule spans (set by the loop around step()/run_round())
  /// and for cell spans (set by the top-level decorator).
  std::atomic<std::uint32_t> round_span{0};
  std::atomic<std::uint32_t> schedule_span{0};
  /// Decorators record only while set (the loops clear it for warm-up,
  /// replay and drain rounds, which are not part of the timed phase).
  std::atomic<bool> recording{false};

 private:
  std::atomic<std::uint32_t> next_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Forwarding decorator around one policy instance. With a null log it
/// only forwards; with a log it records a schedule span (top level) or a
/// cell span (inside a ShardedScheduler), child stage spans when the inner
/// policy is a StagedScheduler, and Hadar's per-call DP statistics.
class ProbedScheduler final : public hadar::sim::IScheduler {
 public:
  enum class Role { kTop, kCell };

  ProbedScheduler(hadar::sim::SchedulerPtr inner, Role role, SpanLog* log);

  std::string name() const override { return inner_->name(); }
  hadar::cluster::AllocationMap schedule(const hadar::sim::SchedulerContext& ctx) override;
  void reset() override { inner_->reset(); }
  void save_state(hadar::common::BinaryWriter& w) const override { inner_->save_state(w); }
  void restore_state(hadar::common::BinaryReader& r) override { inner_->restore_state(r); }

 private:
  hadar::sim::SchedulerPtr inner_;
  Role role_;
  SpanLog* log_;
  hadar::pipeline::StagedScheduler* staged_ = nullptr;
  const hadar::core::HadarScheduler* hadar_ = nullptr;
  std::array<double, hadar::pipeline::kNumStages> stage_seen_{};
};

/// Folds one round's decision into a running schedule digest.
std::uint64_t fold_digest(std::uint64_t h, long long round,
                          const hadar::cluster::AllocationMap& amap);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// Nearest-rank percentile (p in [0, 1]) of `xs`; 0 for an empty set.
double percentile(std::vector<double> xs, double p);
/// Samples strictly above the p-th percentile value's rank, i.e. the count
/// a tail percentile rests on: n - ceil(p * n).
long long samples_beyond(std::size_t n, double p);
/// Exact median (the mean of the middle pair for an even count); 0 if empty.
double median(std::vector<double> xs);

}  // namespace perfbench
