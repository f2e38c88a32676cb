// The four benchmark workloads and the metrics they report. A run of a
// workload is a fixed number of units, one per trace drawn from the run's
// seed; a unit is a run to completion or a fixed window of rounds. run_s
// sums the units, round percentiles pool every unit's rounds, and the
// simulated outcomes are means over units.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One workload's shape. The defaults of each named workload come from
/// workload_def(); the self-test shrinks them.
struct WorkloadDef {
  std::string name;
  std::string policy = "hadar";  ///< "hadar" or "gavel"
  int threads = 1;
  bool sharded = false;
  bool service = false;  ///< drive a SchedulerDaemon instead of a RoundEngine loop

  int nodes_per_type = 0;  ///< 0 = the paper's 15-node cluster
  int jobs = 480;
  double jobs_per_hour = 0.0;  ///< 0 = static trace (all jobs at t = 0)

  /// RoundEngine workloads: rounds after the warm-up; 0 = run to completion.
  int timed_rounds = 0;
  int warmup_rounds = 0;
  /// Round after which the durable state is snapshotted and recovered
  /// (windowed runs snapshot at the end of the window instead).
  long long kill_round = 0;
  /// Setups per run (setup_s is their median); cheap ones repeat for 0.5 s.
  int setups = 3;
  /// Units (traces) per run at the reference 10 s budget; scaled with
  /// --seconds.
  int units = 1;

  /// Service workload: node MTTF (s) and the snapshot interval in rounds.
  double node_mttf = 0.0;
  long long snapshot_interval = 50;
};

/// Named workloads in their benchmark configuration; throws on bad names.
WorkloadDef workload_def(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   ///< human-readable lines (sample counts, stamps)
  std::vector<std::string> errors;  ///< failed output checks
  std::uint64_t digest = 0;        ///< every trace of the run folded together
  std::uint64_t first_digest = 0;  ///< the first trace alone (a traced run's only one)
  /// The policy's persisted state at the end of the first trace.
  std::string state_bytes;

  bool correct() const { return errors.empty() && failed == 0; }
  /// Value of the named metric (0 when absent).
  double value(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Time budget; scales the trace count (WorkloadDef::units per 10 s).
  double seconds = 10.0;
  bool trace = false;
  /// Wrap the policy in the forwarding decorator (the self-test turns it
  /// off to show the decorator changes nothing).
  bool decorate = true;
  /// Work directory for durable state and the span file.
  std::string work_dir = ".";
};

/// Runs the workload and returns its metrics: the end-to-end set, or with
/// opt.trace the per-layer set from one traced trace (run between two
/// untraced runs of it, for the tracing overhead).
Report run_workload(const WorkloadDef& def, const RunOptions& opt);

}  // namespace perfbench
