// Unit tests for Value / Row: typing, ordering, hashing, encoding.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/value.h"

namespace ysmart {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::Null);
  EXPECT_EQ(v.to_string(), "NULL");
}

TEST(Value, IntAccessors) {
  Value v{42};
  EXPECT_EQ(v.type(), ValueType::Int);
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_DOUBLE_EQ(v.numeric(), 42.0);
  EXPECT_THROW(v.as_string(), ExecError);
  EXPECT_THROW(v.as_double(), ExecError);
}

TEST(Value, DoubleAccessors) {
  Value v{2.5};
  EXPECT_EQ(v.type(), ValueType::Double);
  EXPECT_DOUBLE_EQ(v.as_double(), 2.5);
  EXPECT_THROW(v.as_int(), ExecError);
}

TEST(Value, StringAccessors) {
  Value v{"hello"};
  EXPECT_EQ(v.type(), ValueType::String);
  EXPECT_EQ(v.as_string(), "hello");
  EXPECT_THROW(v.numeric(), ExecError);
}

TEST(Value, NullThrowsOnNumeric) {
  EXPECT_THROW(Value::null().numeric(), ExecError);
}

TEST(Value, CrossNumericComparison) {
  EXPECT_EQ(Value{1}.compare(Value{1.0}), std::strong_ordering::equal);
  EXPECT_TRUE(Value{1}.compare(Value{1.5}) < 0);
  EXPECT_TRUE(Value{2}.compare(Value{1.5}) > 0);
}

TEST(Value, NullSortsFirst) {
  EXPECT_TRUE(Value::null().compare(Value{-100}) < 0);
  EXPECT_TRUE(Value::null().compare(Value{"a"}) < 0);
  EXPECT_EQ(Value::null().compare(Value::null()), std::strong_ordering::equal);
}

TEST(Value, NumericSortsBeforeString) {
  EXPECT_TRUE(Value{999999}.compare(Value{""}) < 0);
}

TEST(Value, StringOrdering) {
  EXPECT_TRUE(Value{"abc"}.compare(Value{"abd"}) < 0);
  EXPECT_EQ(Value{"x"}.compare(Value{"x"}), std::strong_ordering::equal);
}

TEST(Value, HashConsistentWithEquality) {
  // Ints and equal doubles must hash identically (they compare equal).
  EXPECT_EQ(Value{7}.hash(), Value{7.0}.hash());
  EXPECT_EQ(Value{"s"}.hash(), Value{"s"}.hash());
  // Ints a double holds exactly hash as that double, the rest as ints;
  // near INT64_MAX the double rounds up to 2^63, past int64's range.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Value{min}.hash(), Value{-9223372036854775808.0}.hash());
  EXPECT_EQ(Value{std::int64_t{1} << 53}.hash(), Value{9007199254740992.0}.hash());
  for (const std::int64_t i : {max, max - 511, (std::int64_t{1} << 53) + 1})
    EXPECT_EQ(Value{i}.hash(), std::hash<std::int64_t>{}(i)) << i;
}

TEST(Value, EncodeDecodeRoundTrip) {
  for (const Value& v :
       {Value::null(), Value{-5}, Value{3.25}, Value{"text with spaces"},
        Value{""}, Value{std::int64_t{1} << 60}}) {
    std::string buf;
    v.encode(buf);
    std::size_t pos = 0;
    Value back = Value::decode(buf, pos);
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(v.compare(back), std::strong_ordering::equal);
    EXPECT_EQ(v.type(), back.type());
  }
}

TEST(Value, DecodeRejectsTruncated) {
  std::string buf;
  Value{12345}.encode(buf);
  buf.resize(buf.size() - 1);
  std::size_t pos = 0;
  EXPECT_THROW(Value::decode(buf, pos), InternalError);
}

TEST(Value, ByteSizes) {
  EXPECT_EQ(Value::null().byte_size(), 1u);
  EXPECT_EQ(Value{1}.byte_size(), 8u);
  EXPECT_EQ(Value{1.0}.byte_size(), 8u);
  EXPECT_EQ(Value{"abcd"}.byte_size(), 6u);  // 2 framing + 4 payload
}

TEST(Row, ByteSizeSumsCellsPlusFraming) {
  Row r{Value{1}, Value{"ab"}};
  EXPECT_EQ(row_byte_size(r), 4u + 8u + 4u);
}

TEST(Row, CompareLexicographic) {
  EXPECT_TRUE(compare_rows({Value{1}, Value{2}}, {Value{1}, Value{3}}) < 0);
  EXPECT_EQ(compare_rows({Value{1}}, {Value{1}}), std::strong_ordering::equal);
  EXPECT_TRUE(compare_rows({Value{1}}, {Value{1}, Value{0}}) < 0);  // prefix first
}

TEST(Row, HashDiffersOnOrder) {
  RowHash h;
  EXPECT_NE(h({Value{1}, Value{2}}), h({Value{2}, Value{1}}));
}

TEST(Row, ToString) {
  EXPECT_EQ(row_to_string({Value{1}, Value{"x"}, Value::null()}),
            "(1, x, NULL)");
}

}  // namespace
}  // namespace ysmart
