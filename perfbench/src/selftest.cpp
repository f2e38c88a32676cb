// The benchmark's own checks, run by `perfbench --selftest` (and by
// `python3 perfbench/run.py --selftest`, which adds the metric-name check):
//   - the percentile helper;
//   - the same seed gives identical digests and simulated metrics, and a
//     different seed changes the digest;
//   - the forwarding decorator leaves the schedule digest and the policy's
//     save_state bytes unchanged, flat and sharded;
//   - a traced run schedules exactly like an untraced one.
// Workloads are shrunk so the whole test takes a few seconds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void percentile_tests() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  check(near(percentile(ten, 0.5), 5.0), "percentile: p50 of 1..10 is 5 (nearest rank)");
  check(near(percentile(ten, 0.9), 9.0), "percentile: p90 of 1..10 is 9");
  check(near(percentile(ten, 1.0), 10.0), "percentile: p100 is the maximum");
  check(near(percentile({}, 0.9), 0.0), "percentile: empty set gives 0");
  check(near(percentile({7.0}, 0.9), 7.0), "percentile: one sample");
  check(samples_beyond(100, 0.9) == 10, "samples_beyond: 100 samples leave 10 beyond p90");
  check(samples_beyond(99, 0.9) == 9, "samples_beyond: 99 samples leave 9 beyond p90");
  check(samples_beyond(10, 0.5) == 5, "samples_beyond: 10 samples leave 5 beyond p50");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median: even count averages the middle pair");
  check(near(median({3.0, 1.0, 2.0}), 2.0), "median: odd count");
}

Report run(const WorkloadDef& d, std::uint64_t seed, bool decorate, bool trace,
           const std::string& dir) {
  RunOptions opt;
  opt.seed = seed;
  opt.seconds = 1e-3;  // one unit
  opt.decorate = decorate;
  opt.trace = trace;
  opt.work_dir = dir + "/" + d.name;
  Report r = run_workload(d, opt);
  for (const auto& e : r.errors) std::printf("  (%s seed %llu: %s)\n", d.name.c_str(),
                                             static_cast<unsigned long long>(seed), e.c_str());
  return r;
}

void workload_tests(const WorkloadDef& d, const std::string& dir) {
  const Report a = run(d, 7, true, false, dir);
  const Report b = run(d, 7, true, false, dir);
  const Report c = run(d, 8, true, false, dir);
  const Report plain = run(d, 7, false, false, dir);
  const Report traced = run(d, 7, true, true, dir);
  check(a.correct() && b.correct() && c.correct() && plain.correct() && traced.correct(),
        d.name + ": every run passes its output checks");
  bool same = a.digest == b.digest;
  for (const char* m : {"avg_jct_h", "makespan_h", "gpu_util"}) same &= a.value(m) == b.value(m);
  check(same, d.name + ": same seed gives the same digest and simulated metrics");
  check(a.digest != c.digest, d.name + ": a different seed changes the digest");
  check(a.digest == plain.digest, d.name + ": the decorator leaves the digest unchanged");
  check(!a.state_bytes.empty() && a.state_bytes == plain.state_bytes,
        d.name + ": the decorator leaves the save_state bytes unchanged");
  check(traced.digest == a.digest, d.name + ": a traced run schedules like an untraced one");
}

}  // namespace

int run_selftest(const std::string& work_dir) {
  percentile_tests();

  WorkloadDef flat = workload_def("paper_static");
  flat.jobs = 48;
  flat.kill_round = 20;
  workload_tests(flat, work_dir);

  WorkloadDef gavel = workload_def("gavel_poisson");
  gavel.jobs = 160;
  gavel.kill_round = 20;
  workload_tests(gavel, work_dir);

  WorkloadDef sharded = workload_def("scale_10k");
  sharded.nodes_per_type = 86;  // 258 nodes: two cells
  sharded.jobs = 600;
  sharded.timed_rounds = 100;
  sharded.setups = 1;
  workload_tests(sharded, work_dir);

  WorkloadDef service = workload_def("service_churn");
  service.nodes_per_type = 86;
  service.jobs = 120;
  service.jobs_per_hour = 12.0;
  service.snapshot_interval = 10;
  service.setups = 1;
  workload_tests(service, work_dir);

  std::printf("%s: %d failure(s)\n", failures == 0 ? "selftest ok" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
