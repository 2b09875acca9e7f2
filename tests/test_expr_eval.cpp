// Unit tests for BoundExpr: SQL NULL propagation, three-valued logic,
// arithmetic typing, comparisons, binding errors.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "exec/expr_eval.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

Schema abc() {
  Schema s;
  s.add("a", ValueType::Int);
  s.add("b", ValueType::Double);
  s.add("c", ValueType::String);
  return s;
}

Value ev(const std::string& expr, const Row& row = {Value{3}, Value{1.5},
                                                    Value{"hi"}}) {
  return BoundExpr(parse_expression(expr), abc()).eval(row);
}

TEST(ExprEval, Arithmetic) {
  EXPECT_EQ(ev("a + 2").as_int(), 5);
  EXPECT_EQ(ev("a - 5").as_int(), -2);
  EXPECT_EQ(ev("a * a").as_int(), 9);
  EXPECT_DOUBLE_EQ(ev("a + b").as_double(), 4.5);
  EXPECT_DOUBLE_EQ(ev("a / 2").as_double(), 1.5);  // '/' is always double
  // Int overflow wraps in two's complement (Hive's BIGINT is a Java long).
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const Row at_max{Value{max}, Value{1.5}, Value{"hi"}};
  const Row at_min{Value{min}, Value{1.5}, Value{"hi"}};
  EXPECT_EQ(ev("a + 1", at_max).as_int(), min);
  EXPECT_EQ(ev("a - 1", at_min).as_int(), max);
  EXPECT_EQ(ev("a * 2", at_max).as_int(), -2);
}

TEST(ExprEval, DivisionByZeroIsNull) { EXPECT_TRUE(ev("a / 0").is_null()); }

TEST(ExprEval, UnaryMinus) {
  EXPECT_EQ(ev("-a").as_int(), -3);
  EXPECT_DOUBLE_EQ(ev("-b").as_double(), -1.5);
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(ev("-a", Row{Value{min}, Value{1.5}, Value{"hi"}}).as_int(), min);
}

TEST(ExprEval, Comparisons) {
  EXPECT_EQ(ev("a = 3").as_int(), 1);
  EXPECT_EQ(ev("a <> 3").as_int(), 0);
  EXPECT_EQ(ev("a < 4").as_int(), 1);
  EXPECT_EQ(ev("a <= 3").as_int(), 1);
  EXPECT_EQ(ev("a > 3").as_int(), 0);
  EXPECT_EQ(ev("a >= 4").as_int(), 0);
  EXPECT_EQ(ev("c = 'hi'").as_int(), 1);
  EXPECT_EQ(ev("c < 'hj'").as_int(), 1);
}

TEST(ExprEval, IntDoubleCrossComparison) {
  EXPECT_EQ(ev("a > b").as_int(), 1);  // 3 > 1.5
}

TEST(ExprEval, NullPropagation) {
  const Row null_row{Value::null(), Value::null(), Value::null()};
  EXPECT_TRUE(ev("a + 1", null_row).is_null());
  EXPECT_TRUE(ev("a = a", null_row).is_null());  // NULL = NULL is NULL
  EXPECT_TRUE(ev("-a", null_row).is_null());
}

TEST(ExprEval, IsNull) {
  const Row null_row{Value::null(), Value{1.0}, Value{"x"}};
  EXPECT_EQ(ev("a IS NULL", null_row).as_int(), 1);
  EXPECT_EQ(ev("b IS NULL", null_row).as_int(), 0);
  EXPECT_EQ(ev("a IS NOT NULL", null_row).as_int(), 0);
}

TEST(ExprEval, ThreeValuedAnd) {
  const Row null_row{Value::null(), Value{1.0}, Value{"x"}};
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
  EXPECT_EQ(ev("(a = 1) AND (b = 0)", null_row).as_int(), 0);
  EXPECT_TRUE(ev("(a = 1) AND (b = 1)", null_row).is_null());
}

TEST(ExprEval, ThreeValuedOr) {
  const Row null_row{Value::null(), Value{1.0}, Value{"x"}};
  // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
  EXPECT_EQ(ev("(a = 1) OR (b = 1)", null_row).as_int(), 1);
  EXPECT_TRUE(ev("(a = 1) OR (b = 0)", null_row).is_null());
}

TEST(ExprEval, NotOfNullIsNull) {
  const Row null_row{Value::null(), Value{1.0}, Value{"x"}};
  EXPECT_TRUE(ev("NOT (a = 1)", null_row).is_null());
}

TEST(ExprEval, IsTrueSemantics) {
  EXPECT_FALSE(is_true(Value::null()));
  EXPECT_FALSE(is_true(Value{0}));
  EXPECT_TRUE(is_true(Value{2}));
  EXPECT_FALSE(is_true(Value{0.0}));
  EXPECT_TRUE(is_true(Value{"x"}));
  EXPECT_FALSE(is_true(Value{""}));
}

TEST(ExprEval, UnknownColumnThrowsAtBind) {
  EXPECT_THROW(BoundExpr(parse_expression("nope + 1"), abc()), PlanError);
}

TEST(ExprEval, AggregateCallThrowsAtBind) {
  EXPECT_THROW(BoundExpr(parse_expression("sum(a)"), abc()), PlanError);
}

TEST(ExprEval, LiteralOnly) {
  EXPECT_EQ(ev("41 + 1").as_int(), 42);
  EXPECT_EQ(ev("'abc'").as_string(), "abc");
}

}  // namespace
}  // namespace ysmart
