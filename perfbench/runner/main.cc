// perfbench_runner --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --dir <scratch dir> [--trace-out <file>]
//
// Runs one workload (workloads.cc) and prints its notes, then the
// result as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any correctness check failed or the run could not be
// set up, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--dir") {
      opt.work_dir = val;
      have_dir = true;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || !have_dir || opt.seconds < 1) {
    std::fprintf(stderr, "usage: see the header of perfbench/runner/main.cc\n");
    return 2;
  }

  perfbench::Report report;
  const bool ran = perfbench::RunWorkload(opt, &report);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  const bool correct = ran && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
