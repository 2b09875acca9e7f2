// AggState: incremental state of one aggregate call.
//
// Supports count(*) / count(x) / count(distinct x) / sum / avg / min /
// max with SQL NULL handling (non-star aggregates skip NULL inputs; an
// empty group yields NULL except count, which yields 0).
//
// States are mergeable, which enables Hadoop-combiner-style map-side
// partial aggregation (the Hive optimization the paper notes in footnote
// 2). count(distinct) cannot be combined losslessly by value counts, so
// its partial form carries the distinct set itself.
#pragma once

#include <set>
#include <span>
#include <string>

#include "common/prof_counters.h"
#include "common/value.h"
#include "plan/plan.h"

namespace ysmart {

class AggState {
 public:
  explicit AggState(const AggCall& call);

  /// Feed one input value (ignored content for star-count).
  void add(const Value& v);

  /// Typed add paths used by the vectorized kernels
  /// (exec/vector_kernels.cpp). Each is state- and counter-identical to
  /// add(Value{v}) — including one kAggUpdates count per call — but skips
  /// the variant construction and Value::compare dispatch (min/max use
  /// compare_int_double directly, so kCellCompares drops, which is
  /// expected: it is not part of the mode-reconciled counter set).
  void add_int(std::int64_t v);
  void add_double(double v);
  /// NULL input: counts the update, then skips (non-star semantics; the
  /// batch path never routes star-counts through the typed adds).
  void add_null();

  void merge(const AggState& other);

  /// Back to the freshly constructed state, keeping the call — lets a
  /// caller reuse one state per aggregate across groups.
  void reset();

  Value result() const;

  // ---- partial (combiner) serialization ----
  /// Number of Values this state serializes into. Distinct states are
  /// variable-length and return kVariableArity.
  static constexpr int kVariableArity = -1;
  int partial_arity() const;
  void to_partial(Row& out) const;
  /// Consume `partial_arity()` values from `in` (fixed-arity states only).
  void add_partial(std::span<const Value> in);

  const AggCall& call() const { return call_; }

 private:
  /// call_.func resolved once at construction; the add paths run per
  /// input row and must not re-compare strings.
  enum class Fn { Sum, Avg, Min, Max, Other };

  AggCall call_;
  Fn fn_ = Fn::Other;
  std::int64_t count_ = 0;
  double sum_ = 0;
  bool sum_all_int_ = true;
  std::int64_t isum_ = 0;
  Value min_;
  Value max_;
  std::set<Value> distinct_;
};

/// True if every aggregate of `agg` supports fixed-arity partials (i.e.
/// map-side partial aggregation is applicable).
bool combinable(const PlanNode& agg);

// The typed adds are inline: the batched aggregation loop calls one per
// (row, aggregate) and the call overhead is measurable at that rate.

inline void AggState::add_int(std::int64_t v) {
  prof::count(prof::kAggUpdates);
  if (call_.distinct) {
    distinct_.insert(Value{v});
    return;
  }
  ++count_;
  if (fn_ == Fn::Sum || fn_ == Fn::Avg) {
    sum_ += static_cast<double>(v);
    isum_ = wrapping_add(isum_, v);
  } else if (fn_ == Fn::Min) {
    bool less;
    switch (min_.type()) {
      case ValueType::Null: less = true; break;
      case ValueType::Int: less = v < min_.as_int(); break;
      case ValueType::Double:
        less = compare_int_double(v, min_.as_double()) < 0;
        break;
      default: less = true; break;  // numeric ranks before string
    }
    if (less) min_ = Value{v};
  } else if (fn_ == Fn::Max) {
    bool greater;
    switch (max_.type()) {
      case ValueType::Null: greater = true; break;
      case ValueType::Int: greater = v > max_.as_int(); break;
      case ValueType::Double:
        greater = compare_int_double(v, max_.as_double()) > 0;
        break;
      default: greater = false; break;  // numeric ranks before string
    }
    if (greater) max_ = Value{v};
  }
}

inline void AggState::add_double(double v) {
  prof::count(prof::kAggUpdates);
  if (call_.distinct) {
    distinct_.insert(Value{v});
    return;
  }
  ++count_;
  if (fn_ == Fn::Sum || fn_ == Fn::Avg) {
    sum_ += v;
    sum_all_int_ = false;
  } else if (fn_ == Fn::Min) {
    bool less;
    switch (min_.type()) {
      case ValueType::Null: less = true; break;
      // NaN never tests < (Value::compare calls NaN "equal"), so
      // keep-first-on-tie is preserved either way.
      case ValueType::Double: less = v < min_.as_double(); break;
      case ValueType::Int:
        less = compare_int_double(min_.as_int(), v) > 0;
        break;
      default: less = true; break;  // numeric ranks before string
    }
    if (less) min_ = Value{v};
  } else if (fn_ == Fn::Max) {
    bool greater;
    switch (max_.type()) {
      case ValueType::Null: greater = true; break;
      case ValueType::Double: greater = v > max_.as_double(); break;
      case ValueType::Int:
        greater = compare_int_double(max_.as_int(), v) < 0;
        break;
      default: greater = false; break;  // numeric ranks before string
    }
    if (greater) max_ = Value{v};
  }
}

}  // namespace ysmart
