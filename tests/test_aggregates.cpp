// Unit tests for AggState: SQL semantics, merging, partial (combiner)
// round trips, distinct handling.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "exec/aggregates.h"

namespace ysmart {
namespace {

AggCall call(const std::string& func, bool distinct = false, bool star = false) {
  AggCall c;
  c.func = func;
  c.distinct = distinct;
  c.star = star;
  if (!star) c.arg = Expr::make_column("x");
  return c;
}

TEST(AggState, CountSkipsNulls) {
  AggState s(call("count"));
  s.add(Value{1});
  s.add(Value::null());
  s.add(Value{2});
  EXPECT_EQ(s.result().as_int(), 2);
}

TEST(AggState, CountStarCountsNulls) {
  AggState s(call("count", false, true));
  s.add(Value{1});
  s.add(Value::null());
  EXPECT_EQ(s.result().as_int(), 2);
}

TEST(AggState, CountDistinct) {
  AggState s(call("count", /*distinct=*/true));
  for (int v : {1, 2, 2, 3, 1}) s.add(Value{v});
  s.add(Value::null());  // NULL does not count
  EXPECT_EQ(s.result().as_int(), 3);
}

TEST(AggState, SumIntStaysInt) {
  AggState s(call("sum"));
  s.add(Value{2});
  s.add(Value{3});
  EXPECT_EQ(s.result().type(), ValueType::Int);
  EXPECT_EQ(s.result().as_int(), 5);
  // sum{INT64_MAX, 1} wraps in two's complement: by add, by the typed
  // add, and through the combiner's partial merge.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  AggState row(call("sum")), typed(call("sum")), a(call("sum")), b(call("sum"));
  row.add(Value{max});
  row.add(Value{1});
  typed.add_int(max);
  typed.add_int(1);
  a.add(Value{max});
  b.add(Value{1});
  AggState merged(call("sum"));
  for (const AggState* part : {&a, &b}) {
    Row partial;
    part->to_partial(partial);
    merged.add_partial(partial);
  }
  a.merge(b);
  for (const AggState* w : {&row, &typed, &merged, &a})
    EXPECT_EQ(w->result().as_int(), min);
}

TEST(AggState, SumMixedBecomesDouble) {
  AggState s(call("sum"));
  s.add(Value{2});
  s.add(Value{0.5});
  EXPECT_EQ(s.result().type(), ValueType::Double);
  EXPECT_DOUBLE_EQ(s.result().as_double(), 2.5);
}

TEST(AggState, EmptyGroupSemantics) {
  EXPECT_EQ(AggState(call("count")).result().as_int(), 0);
  EXPECT_TRUE(AggState(call("sum")).result().is_null());
  EXPECT_TRUE(AggState(call("avg")).result().is_null());
  EXPECT_TRUE(AggState(call("min")).result().is_null());
  EXPECT_TRUE(AggState(call("max")).result().is_null());
}

TEST(AggState, Avg) {
  AggState s(call("avg"));
  s.add(Value{1});
  s.add(Value{2});
  s.add(Value::null());
  EXPECT_DOUBLE_EQ(s.result().as_double(), 1.5);
}

TEST(AggState, MinMax) {
  AggState mn(call("min")), mx(call("max"));
  for (int v : {5, -2, 9}) {
    mn.add(Value{v});
    mx.add(Value{v});
  }
  EXPECT_EQ(mn.result().as_int(), -2);
  EXPECT_EQ(mx.result().as_int(), 9);
}

TEST(AggState, MinMaxStrings) {
  AggState mn(call("min"));
  mn.add(Value{"beta"});
  mn.add(Value{"alpha"});
  EXPECT_EQ(mn.result().as_string(), "alpha");
}

TEST(AggState, MergeEqualsSingleStream) {
  AggState a(call("avg")), b(call("avg")), whole(call("avg"));
  for (int v : {1, 2, 3}) {
    a.add(Value{v});
    whole.add(Value{v});
  }
  for (int v : {10, 20}) {
    b.add(Value{v});
    whole.add(Value{v});
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.result().as_double(), whole.result().as_double());
}

TEST(AggState, MergeDistinctUnions) {
  AggState a(call("count", true)), b(call("count", true));
  a.add(Value{1});
  a.add(Value{2});
  b.add(Value{2});
  b.add(Value{3});
  a.merge(b);
  EXPECT_EQ(a.result().as_int(), 3);
}

TEST(AggState, PartialRoundTrip) {
  for (const char* func : {"count", "sum", "avg", "min", "max"}) {
    SCOPED_TRACE(func);
    AggState src(call(func));
    for (int v : {4, 7, 7, -1}) src.add(Value{v});
    Row wire;
    src.to_partial(wire);
    EXPECT_EQ(static_cast<int>(wire.size()), src.partial_arity());
    AggState dst(call(func));
    dst.add_partial(std::span<const Value>(wire.data(), wire.size()));
    EXPECT_EQ(dst.result().compare(src.result()), std::strong_ordering::equal);
  }
}

TEST(AggState, PartialOfEmptyState) {
  AggState src(call("min"));
  Row wire;
  src.to_partial(wire);  // NULL min
  AggState dst(call("min"));
  dst.add_partial(std::span<const Value>(wire.data(), wire.size()));
  EXPECT_TRUE(dst.result().is_null());
}

// A reset state behaves like a fresh one: a reused state carries nothing
// over from the group it served before.
TEST(AggState, ResetEqualsFresh) {
  for (const auto& c : {call("count"), call("count", true), call("sum"),
                        call("avg"), call("min"), call("max")}) {
    SCOPED_TRACE(c.func + (c.distinct ? " distinct" : ""));
    AggState reused(c), fresh(c);
    for (const Value& v : {Value{0.5}, Value{-3}, Value{100}}) reused.add(v);
    reused.reset();
    EXPECT_EQ(reused.result().is_null(), fresh.result().is_null());
    for (int v : {4, 7, 7}) {
      reused.add(Value{v});
      fresh.add(Value{v});
    }
    EXPECT_EQ(reused.result().type(), fresh.result().type());
    EXPECT_EQ(reused.result().compare(fresh.result()), std::strong_ordering::equal);
  }
}

TEST(AggState, DistinctHasNoFixedPartial) {
  AggState s(call("count", true));
  EXPECT_EQ(s.partial_arity(), AggState::kVariableArity);
  Row wire;
  EXPECT_THROW(s.to_partial(wire), InternalError);
}

TEST(AggState, DistinctNonCountThrows) {
  AggState s(call("sum", true));
  s.add(Value{1});
  EXPECT_THROW(s.result(), ExecError);
}

TEST(Combinable, DetectsDistinct) {
  PlanNode agg;
  agg.kind = PlanKind::Agg;
  agg.aggs.push_back(call("sum"));
  EXPECT_TRUE(combinable(agg));
  agg.aggs.push_back(call("count", true));
  EXPECT_FALSE(combinable(agg));
}

}  // namespace
}  // namespace ysmart
