#ifndef DBPL_TESTS_TEST_UTIL_H_
#define DBPL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/order.h"
#include "core/value.h"
#include "types/type.h"

namespace dbpl::testing {

/// A scratch path private to this process: `<gtest TempDir>/dbpl_<name>_<pid>`.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/dbpl_" + name + "_" +
         std::to_string(::getpid());
}

/// Removes the file at `path` on construction and on scope exit.
struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Reduces `vs` to an antichain under the information order by dropping
/// any element strictly above another. Generated set values must be
/// antichains for `⊑` to be a partial order on them (the paper considers
/// only such sets as relations).
inline std::vector<core::Value> MinReduceForTest(std::vector<core::Value> vs) {
  std::vector<core::Value> out;
  for (const auto& v : vs) {
    bool dominated = false;
    for (const auto& w : vs) {
      if (!(v == w) && core::LessEq(w, v)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(v);
  }
  return out;
}

/// Deterministic xorshift PRNG so property tests are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  /// Uniform integer in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

  bool Coin() { return Next() & 1; }

 private:
  uint64_t state_;
};

/// Generates a pseudo-random value with nesting `depth`. The atom pools
/// are deliberately tiny so generated values are frequently comparable
/// and joinable — otherwise ordering properties would be vacuous.
inline core::Value RandomValue(Rng& rng, int depth) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  static const char* kStrings[] = {"x", "y"};
  int pick = depth <= 0 ? static_cast<int>(rng.Below(4))
                        : static_cast<int>(rng.Below(8));
  switch (pick) {
    case 0:
      return core::Value::Bottom();
    case 1:
      return core::Value::Int(static_cast<int64_t>(rng.Below(3)));
    case 2:
      return core::Value::String(kStrings[rng.Below(2)]);
    case 3:
      return core::Value::Bool(rng.Coin());
    case 4: {  // record
      std::vector<core::Value::RecordField> fields;
      size_t n = rng.Below(4);
      for (size_t i = 0; i < 4 && fields.size() < n; ++i) {
        if (rng.Coin()) {
          fields.push_back({kNames[i], RandomValue(rng, depth - 1)});
        }
      }
      return core::Value::RecordOf(std::move(fields));
    }
    case 5: {  // set (reduced to an antichain; see MinReduceForTest)
      std::vector<core::Value> elems;
      size_t n = rng.Below(3);
      for (size_t i = 0; i < n; ++i) elems.push_back(RandomValue(rng, depth - 1));
      return core::Value::Set(MinReduceForTest(std::move(elems)));
    }
    case 6: {  // list
      std::vector<core::Value> elems;
      size_t n = rng.Below(3);
      for (size_t i = 0; i < n; ++i) elems.push_back(RandomValue(rng, depth - 1));
      return core::Value::List(std::move(elems));
    }
    default:  // tagged (variant inhabitant)
      return core::Value::Tagged(rng.Coin() ? "ok" : "err",
                                 RandomValue(rng, depth - 1));
  }
}

/// A corpus of pseudo-random values for property tests.
inline std::vector<core::Value> Corpus(uint64_t seed, size_t n, int depth) {
  Rng rng(seed);
  std::vector<core::Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(RandomValue(rng, depth));
  return out;
}

/// Generates a pseudo-random *record* value (flat or nested one level),
/// useful for relation tests.
inline core::Value RandomRecord(Rng& rng) {
  static const char* kNames[] = {"Name", "Dept", "Age", "Addr"};
  std::vector<core::Value::RecordField> fields;
  for (const char* name : kNames) {
    if (!rng.Coin()) continue;
    if (std::string(name) == "Addr") {
      std::vector<core::Value::RecordField> inner;
      if (rng.Coin()) {
        inner.push_back(
            {"City", core::Value::String(rng.Coin() ? "Moose" : "Austin")});
      }
      if (rng.Coin()) {
        inner.push_back(
            {"State", core::Value::String(rng.Coin() ? "WY" : "MT")});
      }
      fields.push_back({name, core::Value::RecordOf(std::move(inner))});
    } else if (std::string(name) == "Age") {
      fields.push_back({name, core::Value::Int(static_cast<int64_t>(
                                  20 + rng.Below(3)))});
    } else {
      fields.push_back(
          {name, core::Value::String(std::string(1, 'A' + static_cast<char>(
                                                         rng.Below(3))))});
    }
  }
  return core::Value::RecordOf(std::move(fields));
}

/// A random partial record over attribute pool {A, B, C, D}, each
/// attribute present with probability 1/2. A present attribute's value
/// is ⊥ with probability `bottom_pct`/100, a nested record with
/// probability 1/4 (when `nested`), and a small-domain atom otherwise —
/// small domains keep pairs frequently consistent, so join paths are
/// all exercised.
inline core::Value RandomPartialRecord(Rng& rng, int bottom_pct, bool nested) {
  static const char* kNames[] = {"A", "B", "C", "D"};
  std::vector<core::Value::RecordField> fields;
  for (const char* name : kNames) {
    if (!rng.Coin()) continue;
    core::Value v;
    if (rng.Below(100) < static_cast<uint64_t>(bottom_pct)) {
      v = core::Value::Bottom();
    } else if (nested && rng.Below(4) == 0) {
      std::vector<core::Value::RecordField> inner;
      if (rng.Coin()) {
        inner.push_back(
            {"x", core::Value::Int(static_cast<int64_t>(rng.Below(2)))});
      }
      if (rng.Coin()) {
        inner.push_back({"y", core::Value::String(rng.Coin() ? "p" : "q")});
      }
      v = core::Value::RecordOf(std::move(inner));
    } else {
      v = core::Value::Int(static_cast<int64_t>(rng.Below(3)));
    }
    fields.push_back({name, std::move(v)});
  }
  return core::Value::RecordOf(std::move(fields));
}

inline std::vector<core::Value> RecordCorpus(Rng& rng, size_t n, int bottom_pct,
                                             bool nested) {
  std::vector<core::Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(RandomPartialRecord(rng, bottom_pct, nested));
  }
  return out;
}

/// Generates a pseudo-random structural type with nesting `depth`.
/// Quantifiers are excluded (their kernel subtyping rules make the
/// algebraic property tests subtler than the corpus warrants); Mu
/// appears in a simple self-referential record pattern.
inline types::Type RandomType(Rng& rng, int depth) {
  using types::Type;
  static const char* kLabels[] = {"a", "b", "c", "d"};
  int pick = depth <= 0 ? static_cast<int>(rng.Below(5))
                        : static_cast<int>(5 + rng.Below(6));
  switch (pick) {
    case 0:
      return Type::Int();
    case 1:
      return Type::String();
    case 2:
      return Type::Bool();
    case 3:
      return Type::Top();
    case 4:
      return Type::Bottom();
    case 5: {  // record
      std::vector<std::pair<std::string, Type>> fields;
      for (const char* label : kLabels) {
        if (rng.Coin()) fields.emplace_back(label, RandomType(rng, depth - 1));
      }
      return Type::RecordOf(std::move(fields));
    }
    case 6: {  // variant
      std::vector<std::pair<std::string, Type>> tags;
      size_t n = 1 + rng.Below(3);
      for (size_t i = 0; i < n; ++i) {
        tags.emplace_back(kLabels[i], RandomType(rng, depth - 1));
      }
      return Type::VariantOf(std::move(tags));
    }
    case 7:
      return Type::List(RandomType(rng, depth - 1));
    case 8:
      return Type::Set(RandomType(rng, depth - 1));
    case 9: {  // function
      std::vector<Type> params;
      size_t n = rng.Below(3);
      for (size_t i = 0; i < n; ++i) params.push_back(RandomType(rng, depth - 1));
      return Type::Func(std::move(params), RandomType(rng, depth - 1));
    }
    default:  // simple recursive record
      return Type::Mu("x", Type::RecordOf(
                               {{"next", Type::Var("x")},
                                {"val", RandomType(rng, depth - 1)}}));
  }
}

inline std::vector<types::Type> TypeCorpus(uint64_t seed, size_t n,
                                           int depth) {
  Rng rng(seed);
  std::vector<types::Type> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(RandomType(rng, depth));
  return out;
}

}  // namespace dbpl::testing

#endif  // DBPL_TESTS_TEST_UTIL_H_
