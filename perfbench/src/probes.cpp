#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

using hadar::cluster::AllocationMap;

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

// ---------------------------------------------------------------- SpanLog ---

void SpanLog::add(const Span* spans, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans, spans + n);
}

std::vector<Span> SpanLog::sorted() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::vector<Span> spans = sorted();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, \"a\": [%g, %g, %g, "
                 "%g, %g, %g, %g]}}%s\n",
                 s.name, static_cast<int>(s.kind),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent, s.arg[0],
                 s.arg[1], s.arg[2], s.arg[3], s.arg[4], s.arg[5], s.arg[6],
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// -------------------------------------------------------- ProbedScheduler ---

ProbedScheduler::ProbedScheduler(hadar::sim::SchedulerPtr inner, Role role, SpanLog* log)
    : inner_(std::move(inner)), role_(role), log_(log) {
  staged_ = dynamic_cast<hadar::pipeline::StagedScheduler*>(inner_.get());
  hadar_ = dynamic_cast<const hadar::core::HadarScheduler*>(inner_.get());
  if (staged_ != nullptr && log_ != nullptr) staged_->enable_stage_timing(true);
}

AllocationMap ProbedScheduler::schedule(const hadar::sim::SchedulerContext& ctx) {
  if (log_ == nullptr) return inner_->schedule(ctx);
  if (!log_->recording.load()) {
    AllocationMap m = inner_->schedule(ctx);
    if (staged_ != nullptr) stage_seen_ = staged_->stage_seconds();
    return m;
  }

  static constexpr const char* kStageNames[hadar::pipeline::kNumStages] = {
      "stage.admission", "stage.priority", "stage.allocation", "stage.placement",
      "stage.preemption"};
  Span out[1 + hadar::pipeline::kNumStages];
  Span& s = out[0];
  s.id = log_->reserve();
  s.kind = role_ == Role::kTop ? SpanKind::kSchedule : SpanKind::kCell;
  s.name = role_ == Role::kTop ? "schedule" : "cell";
  s.parent = role_ == Role::kTop ? log_->round_span.load() : log_->schedule_span.load();
  if (role_ == Role::kTop) log_->schedule_span.store(s.id);
  s.arg[0] = static_cast<double>(ctx.jobs.size());

  s.start_ns = now_ns();
  AllocationMap m = inner_->schedule(ctx);
  s.end_ns = now_ns();

  std::size_t n = 1;
  if (staged_ != nullptr) {
    const auto& secs = staged_->stage_seconds();
    std::int64_t cursor = s.start_ns;
    for (int k = 0; k < hadar::pipeline::kNumStages; ++k) {
      const auto ki = static_cast<std::size_t>(k);
      Span& st = out[n++];
      st.id = log_->reserve();
      st.parent = s.id;
      st.kind = SpanKind::kStage;
      st.name = kStageNames[k];
      st.start_ns = cursor;
      cursor += static_cast<std::int64_t>(std::llround((secs[ki] - stage_seen_[ki]) * 1e9));
      st.end_ns = cursor;
      st.arg[0] = k;
    }
    stage_seen_ = secs;
  }
  if (hadar_ != nullptr) {
    const auto& dp = hadar_->last_dp_stats();
    s.arg[kArgDpStates] = dp.states_explored;
    s.arg[kArgDpTail] = dp.greedy_tail_jobs;
  }
  log_->add(out, n);
  return m;
}

// ------------------------------------------------------- digest and stats ---

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 29);
}

}  // namespace

std::uint64_t fold_digest(std::uint64_t h, long long round, const AllocationMap& amap) {
  h = mix(h, static_cast<std::uint64_t>(round));
  for (const auto& [id, alloc] : amap) {
    h = mix(h, static_cast<std::uint64_t>(id));
    for (const auto& p : alloc.placements()) {
      h = mix(h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.node)) << 32) |
                     (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.type)) << 16) |
                     static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.count)));
    }
  }
  return h;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n - 1e-9)));
  return xs[std::min(rank, xs.size()) - 1];
}

long long samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<long long>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return static_cast<long long>(n) - std::max(1LL, rank);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace perfbench
