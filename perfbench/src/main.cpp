// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --selftest [--work-dir <dir>]
//
// Prints the effective configuration, sample counts and one line per metric,
// then a JSON object as the last line of stdout (see perfbench/run.py, which
// builds this binary and turns that object into the benchmark's result).
// Environment knobs that would change what is measured are refused.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace perfbench {
int run_selftest(const std::string& work_dir);
}

namespace {

/// Knobs the library or its factories read that would change the measured
/// configuration. The benchmark builds its policies explicitly, so most are
/// inert here; they are refused anyway so a stray setting cannot alias a
/// result. HADAR_THREADS is overridden per workload instead.
bool refused_env(const char* entry) {
  static const char* const kPrefixes[] = {"HADAR_CELLS=",           "HADAR_CELL_MIGRATION=",
                                          "HADAR_DEADLINE_WEIGHT=", "HADAR_FAIRNESS_WEIGHT=",
                                          "HADAR_QUOTA_",           "HADAR_TRACE",
                                          "HADAR_SERVICE_"};
  for (const char* p : kPrefixes) {
    if (std::strncmp(entry, p, std::strlen(p)) == 0) return true;
  }
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] | --selftest [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

extern char** environ;

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir = ".";
  perfbench::RunOptions opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (refused_env(*e)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  opt.work_dir = work_dir;
  if (selftest) return perfbench::run_selftest(work_dir + "/selftest");
  if (workload.empty() || !(opt.seconds > 0.0)) return usage();

  perfbench::WorkloadDef def;
  try {
    def = perfbench::workload_def(workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  opt.work_dir = work_dir + "/" + workload;
  const perfbench::Report rep = perfbench::run_workload(def, opt);

  for (const auto& n : rep.notes) std::printf("%s\n", n.c_str());
  for (const auto& e : rep.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("ops_attempted %lld, ops_failed %lld, ops_failed_frac %.6f\n", rep.attempted,
              rep.failed,
              rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted : 0.0);
  std::printf("schedule_digest %016" PRIx64 "\n", rep.digest);
  for (const auto& m : rep.metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, \"correct\": %s, "
              "\"attempted\": %lld, \"failed\": %lld, \"digest\": \"%016" PRIx64
              "\", \"first_digest\": \"%016" PRIx64 "\", \"errors\": [",
              def.name.c_str(), opt.seed, opt.trace ? 1 : 0, rep.correct() ? "true" : "false",
              rep.attempted, rep.failed, rep.digest, rep.first_digest);
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(rep.errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                rep.metrics[i].name.c_str(), rep.metrics[i].value, rep.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
