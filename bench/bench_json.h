#ifndef DBPL_BENCH_BENCH_JSON_H_
#define DBPL_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "provenance.h"

namespace dbpl::bench {

/// A JSON number: integral values exactly, others to 9 digits, and
/// null for the non-finite values JSON cannot spell.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    out << static_cast<int64_t>(v);
  } else {
    out.precision(9);
    out << v;
  }
  return out.str();
}

/// The console reporter, teeing every iteration run into one JSON
/// record: name, variant (the name up to its first '/'), the
/// benchmark's own thread count, ns_per_op and every user counter.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const double ns_per_op =
          run.iterations > 0 ? run.real_accumulated_time /
                                   static_cast<double>(run.iterations) * 1e9
                             : 0.0;
      std::ostringstream rec;
      rec << "{\"name\": \"" << name << "\", \"variant\": \""
          << name.substr(0, name.find('/'))
          << "\", \"bench_threads\": " << run.threads
          << ", \"ns_per_op\": " << JsonNumber(ns_per_op);
      for (const auto& [key, counter] : run.counters) {
        rec << ", \"" << key << "\": " << JsonNumber(counter.value);
      }
      rec << "}";
      records_.push_back(rec.str());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Writes the records, led by ProvenanceJson(), to `path`.
  void WriteJson(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << path << " for writing\n";
      return;
    }
    out << "{\"provenance\": " << ProvenanceJson() << ",\n \"results\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << "  " << records_[i] << (i + 1 < records_.size() ? "," : "")
          << "\n";
    }
    out << "]}\n";
  }

 private:
  std::vector<std::string> records_;
};

/// The whole main() of a bench binary that tees its results to JSON:
/// runs the selected benchmarks and writes `default_path`, or the path
/// in environment variable `path_env` when set.
inline int RunAndWriteJson(int argc, char** argv, const char* path_env,
                           const char* default_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once from main before
  // any worker thread exists.
  const char* path = std::getenv(path_env);
  reporter.WriteJson(path != nullptr ? path : default_path);
  return 0;
}

}  // namespace dbpl::bench

#endif  // DBPL_BENCH_BENCH_JSON_H_
