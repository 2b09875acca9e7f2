#include "exec/aggregates.h"

#include "common/error.h"
#include "common/prof_counters.h"

namespace ysmart {

AggState::AggState(const AggCall& call) : call_(call) {
  if (call_.func == "sum")
    fn_ = Fn::Sum;
  else if (call_.func == "avg")
    fn_ = Fn::Avg;
  else if (call_.func == "min")
    fn_ = Fn::Min;
  else if (call_.func == "max")
    fn_ = Fn::Max;
}

void AggState::add(const Value& v) {
  prof::count(prof::kAggUpdates);
  if (!call_.star && v.is_null()) return;  // SQL: aggregates skip NULLs
  if (call_.distinct) {
    distinct_.insert(v);
    return;
  }
  ++count_;
  if (fn_ == Fn::Sum || fn_ == Fn::Avg) {
    sum_ += v.numeric();
    if (v.type() == ValueType::Int)
      isum_ = wrapping_add(isum_, v.as_int());
    else
      sum_all_int_ = false;
  } else if (fn_ == Fn::Min) {
    if (min_.is_null() || v.compare(min_) < 0) min_ = v;
  } else if (fn_ == Fn::Max) {
    if (max_.is_null() || v.compare(max_) > 0) max_ = v;
  }
}

void AggState::add_null() { add(Value::null()); }

void AggState::merge(const AggState& other) {
  if (call_.distinct) {
    distinct_.insert(other.distinct_.begin(), other.distinct_.end());
    return;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  isum_ = wrapping_add(isum_, other.isum_);
  sum_all_int_ = sum_all_int_ && other.sum_all_int_;
  if (!other.min_.is_null() && (min_.is_null() || other.min_.compare(min_) < 0))
    min_ = other.min_;
  if (!other.max_.is_null() && (max_.is_null() || other.max_.compare(max_) > 0))
    max_ = other.max_;
}

void AggState::reset() {
  count_ = 0;
  sum_ = 0;
  sum_all_int_ = true;
  isum_ = 0;
  min_ = Value::null();
  max_ = Value::null();
  distinct_.clear();
}

Value AggState::result() const {
  if (call_.func == "count") {
    if (call_.distinct) return Value{static_cast<std::int64_t>(distinct_.size())};
    return Value{count_};
  }
  if (call_.distinct)
    throw ExecError("DISTINCT is only supported with count()");
  if (count_ == 0) return Value::null();
  if (call_.func == "sum")
    return sum_all_int_ ? Value{isum_} : Value{sum_};
  if (call_.func == "avg") return Value{sum_ / static_cast<double>(count_)};
  if (call_.func == "min") return min_;
  if (call_.func == "max") return max_;
  throw ExecError("unknown aggregate: " + call_.func);
}

int AggState::partial_arity() const {
  if (call_.distinct) return kVariableArity;
  if (call_.func == "count") return 1;
  if (call_.func == "sum" || call_.func == "avg") return 2;  // (sum, count)
  if (call_.func == "min" || call_.func == "max") return 1;
  throw ExecError("unknown aggregate: " + call_.func);
}

void AggState::to_partial(Row& out) const {
  check(!call_.distinct, "distinct aggregates have no fixed partial form");
  if (call_.func == "count") {
    out.push_back(Value{count_});
  } else if (call_.func == "sum" || call_.func == "avg") {
    out.push_back(sum_all_int_ ? Value{isum_} : Value{sum_});
    out.push_back(Value{count_});
  } else if (call_.func == "min") {
    out.push_back(min_);
  } else {
    out.push_back(max_);
  }
}

void AggState::add_partial(std::span<const Value> in) {
  prof::count(prof::kAggUpdates);
  check(!call_.distinct, "distinct aggregates have no fixed partial form");
  if (call_.func == "count") {
    count_ += in[0].as_int();
  } else if (call_.func == "sum" || call_.func == "avg") {
    if (!in[0].is_null()) {
      sum_ += in[0].numeric();
      if (in[0].type() == ValueType::Int)
        isum_ = wrapping_add(isum_, in[0].as_int());
      else
        sum_all_int_ = false;
    }
    count_ += in[1].as_int();
  } else if (call_.func == "min") {
    if (!in[0].is_null()) {
      ++count_;
      if (min_.is_null() || in[0].compare(min_) < 0) min_ = in[0];
    }
  } else {
    if (!in[0].is_null()) {
      ++count_;
      if (max_.is_null() || in[0].compare(max_) > 0) max_ = in[0];
    }
  }
}

bool combinable(const PlanNode& agg) {
  for (const auto& a : agg.aggs)
    if (a.distinct) return false;
  return true;
}

}  // namespace ysmart
