#ifndef DBPL_BENCH_BENCH_UTIL_H_
#define DBPL_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/value.h"

namespace dbpl::bench {

/// The three-field record the WAL benches (E11–E13, E15) insert; its
/// bytes depend only on `i`.
inline core::Value MakeRec(int64_t i) {
  using core::Value;
  return Value::RecordOf({{"seq", Value::Int(i)},
                          {"name", Value::String("r" + std::to_string(i % 97))},
                          {"flag", Value::Bool((i & 1) != 0)}});
}

/// A path `<tmp>/<prefix><pid>_<n>` that is new to this process and
/// holds nothing (a stale one is removed first).
inline std::string FreshDir(const std::string& prefix) {
  static int counter = 0;
  std::string dir = std::filesystem::temp_directory_path() /
                    (prefix + std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace dbpl::bench

#endif  // DBPL_BENCH_BENCH_UTIL_H_
