#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for databases and logs; created and removed by
  /// the run.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result: sample counts,
  /// the layer breakdown, failure messages.
  std::vector<std::string> notes;
};

/// Runs one workload; false (with a note) for an unknown workload or a
/// run that could not be set up.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
