// Tests for the map-side hash aggregation (exec/hash_agg.h): the group
// table's ids, growth and key order, and the batch path against the row
// path on seeded data — same groups, same key rows, bit-identical
// aggregate results and the same counters — including key columns the
// kernels leave to the per-row fallback and a global aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/normkey.h"
#include "common/prof_counters.h"
#include "common/rng.h"
#include "exec/hash_agg.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

TEST(GroupTable, DenseIdsInFirstInsertOrder) {
  GroupTable t;
  EXPECT_EQ(t.find_or_insert("b"), 0u);
  EXPECT_EQ(t.find_or_insert("a"), 1u);
  EXPECT_EQ(t.find_or_insert("b"), 0u);
  EXPECT_EQ(t.find_or_insert(""), 2u);
  EXPECT_EQ(t.find_or_insert(std::string_view("a\0", 2)), 3u);
  EXPECT_EQ(t.find_or_insert("a"), 1u);
  EXPECT_EQ(t.find_or_insert(""), 2u);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.key(0), "b");
  EXPECT_EQ(t.key(2), "");
  EXPECT_EQ(t.key(3), std::string_view("a\0", 2));
  EXPECT_EQ(t.ids_in_key_order(), (std::vector<std::uint32_t>{2, 1, 3, 0}));
}

// Thousands of keys force repeated growth; every key keeps its id and the
// key order is the order of the encoded values.
TEST(GroupTable, GrowsAndOrdersByKeyBytes) {
  std::vector<std::int64_t> values;
  for (std::int64_t i = -5000; i < 5000; ++i) values.push_back(i * 7919);
  values.push_back(std::numeric_limits<std::int64_t>::min());
  values.push_back(std::numeric_limits<std::int64_t>::max());
  Rng rng(42);
  for (std::size_t i = values.size() - 1; i > 0; --i)
    std::swap(values[i], values[static_cast<std::size_t>(
                             rng.uniform(0, static_cast<std::int64_t>(i)))]);
  GroupTable t;
  auto key_of = [](std::int64_t v) {
    std::string k;
    append_norm_key_int(v, k);
    return k;
  };
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_EQ(t.find_or_insert(key_of(values[i])), i);
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_EQ(t.find_or_insert(key_of(values[i])), i);
  ASSERT_EQ(t.size(), values.size());
  std::vector<std::int64_t> by_key;
  for (const std::uint32_t id : t.ids_in_key_order()) by_key.push_back(values[id]);
  std::vector<std::int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(by_key, sorted);
}

Schema data_schema() {
  Schema s;
  s.add("g", ValueType::Int);     // Int keys with NULLs
  s.add("t", ValueType::String);  // strings with NULLs and embedded NULs
  s.add("m", ValueType::Int);     // Int and Double mixed within a batch
  s.add("d", ValueType::Double);  // Double keys: -0.0, +0.0, NaN
  s.add("a", ValueType::Int);
  s.add("b", ValueType::Double);
  return s;
}

std::vector<Row> data_rows(std::size_t n) {
  Rng rng(20261017);
  const std::string strings[] = {"", "x", std::string("x\0", 2),
                                 std::string("\0y", 2), "\xff"};
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25,
                            std::numeric_limits<double>::quiet_NaN()};
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) {
    auto maybe_null = [&](Value v) {
      return rng.uniform(0, 15) == 0 ? Value::null() : std::move(v);
    };
    const std::int64_t m = rng.uniform(0, 4);
    rows.push_back(Row{
        maybe_null(Value{rng.uniform(-3, 3)}),
        maybe_null(Value{strings[rng.uniform(0, 4)]}),
        rng.uniform(0, 1) ? Value{m} : Value{static_cast<double>(m)},
        maybe_null(Value{doubles[rng.uniform(0, 4)]}),
        maybe_null(Value{rng.uniform(-1000, 1000)}),
        maybe_null(Value{rng.uniform01() * 100 - 50}),
    });
  }
  return rows;
}

/// Identical alternative and, for doubles, identical bits.
bool same_value(const Value& x, const Value& y) {
  if (x.type() != y.type()) return false;
  if (x.type() == ValueType::Double)
    return std::bit_cast<std::uint64_t>(x.as_double()) ==
           std::bit_cast<std::uint64_t>(y.as_double());
  return x.compare(y) == 0;
}

struct GroupOut {
  std::string norm_key;
  Row key;
  Row results;
};

std::vector<GroupOut> groups_of(HashAggregator& agg) {
  std::vector<GroupOut> out;
  agg.for_each_in_key_order(
      [&](std::string_view norm_key, Row& key, std::span<const AggState> states) {
        GroupOut g{std::string(norm_key), key, {}};
        for (const AggState& s : states) g.results.push_back(s.result());
        out.push_back(std::move(g));
      });
  return out;
}

std::uint64_t counter(prof::Counter c) { return prof::thread_snapshot().dispatch[c]; }

// The batch path forms the groups, key rows, results and counters of the
// row path, over batches of several sizes.
TEST(HashAggregator, BatchPathMatchesRowPath) {
  const Schema schema = data_schema();
  const std::vector<Row> rows = data_rows(3000);
  const std::vector<std::vector<std::string>> keys = {
      {"g"}, {"t", "g"}, {"m"}, {"d", "t"}, {}};
  std::vector<AggCall> aggs;
  auto call = [&](const char* func, const char* arg) {
    AggCall c;
    c.func = func;
    c.star = arg == nullptr;
    if (arg) c.arg = parse_expression(arg);
    aggs.push_back(c);
  };
  call("count", nullptr);
  call("count", "a");
  call("sum", "a");
  call("avg", "b");
  call("sum", "a * 2 + b");
  call("min", "b");
  call("max", "a");
  call("min", "t");
  call("max", "m");
  std::vector<BoundExpr> args;
  for (const AggCall& c : aggs)
    args.push_back(c.star ? BoundExpr() : BoundExpr(c.arg, schema));

  prof::acquire_enabled();
  for (const auto& key : keys) {
    std::vector<BoundExpr> group_exprs;
    for (const auto& k : key)
      group_exprs.emplace_back(Expr::make_column(k), schema);
    const prof::Counter counted[] = {prof::kRowsEvaluated, prof::kCellsEncoded,
                                     prof::kAggUpdates};
    std::uint64_t row_counts[3];
    for (int c = 0; c < 3; ++c) row_counts[c] = counter(counted[c]);
    HashAggregator by_row(group_exprs, args, aggs);
    for (const Row& r : rows) by_row.add_row(r);
    for (int c = 0; c < 3; ++c) row_counts[c] = counter(counted[c]) - row_counts[c];
    const std::vector<GroupOut> want = groups_of(by_row);

    for (const std::size_t batch_rows : {std::size_t{1}, std::size_t{7},
                                         ColumnBatch::kBatchRows}) {
      SCOPED_TRACE(std::to_string(key.size()) + " key columns, batches of " +
                   std::to_string(batch_rows));
      std::uint64_t batch_counts[3];
      for (int c = 0; c < 3; ++c) batch_counts[c] = counter(counted[c]);
      HashAggregator by_batch(group_exprs, args, aggs);
      const std::span<const Row> all(rows);
      for (std::size_t b = 0; b < rows.size(); b += batch_rows) {
        ColumnBatch batch(all.subspan(b, std::min(batch_rows, rows.size() - b)));
        by_batch.add_batch(batch);
      }
      for (int c = 0; c < 3; ++c)
        EXPECT_EQ(counter(counted[c]) - batch_counts[c], row_counts[c])
            << prof::counter_name(counted[c]);
      const std::vector<GroupOut> got = groups_of(by_batch);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].norm_key, want[i].norm_key);
        EXPECT_EQ(got[i].norm_key, encode_norm_key(got[i].key));
        ASSERT_EQ(got[i].key.size(), want[i].key.size());
        for (std::size_t j = 0; j < got[i].key.size(); ++j)
          EXPECT_TRUE(same_value(got[i].key[j], want[i].key[j]))
              << row_to_string(got[i].key) << " vs " << row_to_string(want[i].key);
        for (std::size_t j = 0; j < aggs.size(); ++j)
          EXPECT_TRUE(same_value(got[i].results[j], want[i].results[j]))
              << aggs[j].to_string() << ": " << got[i].results[j].to_string()
              << " vs " << want[i].results[j].to_string();
      }
    }
    if (key.empty()) {
      EXPECT_EQ(want.size(), 1u);
    }
  }
  prof::release_enabled();
}

}  // namespace
}  // namespace ysmart
