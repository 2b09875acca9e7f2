// Property tests for the vectorized batch layer (exec/batch.h,
// exec/vector_kernels.h):
//   - Row -> ColumnBatch -> Row round-trips are lossless for every nasty
//     cell shape: NULLs, NaN (bit pattern preserved), +/-0.0, int64
//     values beyond 2^53, embedded-NUL and empty strings, Mixed columns.
//   - Every kernel's per-element output is bit-identical to the scalar
//     BoundExpr::eval reference on the same random data.
//   - The reconciled dispatch counters (kRowsEvaluated, kAggUpdates)
//     advance by exactly the same totals through the batched operators as
//     through the row path, on row views over non-contiguous rows at the
//     sizes around kKernelMinRows, where the operators switch between
//     the row loop and the kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/prof_counters.h"
#include "common/rng.h"
#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "exec/vector_kernels.h"
#include "plan/builder.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

/// Scoped YSMART_VECTORIZED override that restores the previous setting.
class ScopedVectorized {
 public:
  explicit ScopedVectorized(bool on) : prev_(vectorized_enabled()) {
    set_vectorized_enabled(on);
  }
  ~ScopedVectorized() { set_vectorized_enabled(prev_); }

 private:
  bool prev_;
};

bool bit_identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::Null:
      return true;
    case ValueType::Int:
      return a.as_int() == b.as_int();
    case ValueType::Double: {
      const double x = a.as_double(), y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;  // NaN- and -0.0-exact
    }
    case ValueType::String:
      return a.as_string() == b.as_string();
  }
  return false;
}

bool rows_bit_identical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bit_identical(a[i], b[i])) return false;
  return true;
}

// Nasty cell generators. Null probability is high enough that null masks
// and AllNull columns both occur at the test's batch sizes.
Value random_int_cell(Rng& rng) {
  switch (rng.uniform(0, 5)) {
    case 0: return Value::null();
    case 1: return Value{(std::int64_t{1} << 53) + rng.uniform(0, 3)};
    case 2: return Value{std::numeric_limits<std::int64_t>::min()};
    case 3: return Value{std::numeric_limits<std::int64_t>::max()};
    default: return Value{rng.uniform(-100, 100)};
  }
}

Value random_double_cell(Rng& rng) {
  switch (rng.uniform(0, 6)) {
    case 0: return Value::null();
    case 1: return Value{std::numeric_limits<double>::quiet_NaN()};
    case 2: return Value{0.0};
    case 3: return Value{-0.0};
    case 4: return Value{9007199254740993.0};  // near 2^53
    default: return Value{rng.uniform01() * 200 - 100};
  }
}

Value random_string_cell(Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0: return Value::null();
    case 1: return Value{std::string()};
    case 2: return Value{std::string("nu\0l", 4)};  // embedded NUL
    default: return Value{rng.ident(3)};
  }
}

Value random_any_cell(Rng& rng) {
  switch (rng.uniform(0, 2)) {
    case 0: return random_int_cell(rng);
    case 1: return random_double_cell(rng);
    default: return random_string_cell(rng);
  }
}

/// Schema: a INT, d INT, b DOUBLE, c STRING, m <mixed>. Columns a/d/b/c
/// are type-pure (plus NULLs) so they pivot to typed vectors; m mixes
/// types so it pivots to Mixed and exercises the fallback.
Schema test_schema() {
  Schema s;
  s.add("a", ValueType::Int);
  s.add("d", ValueType::Int);
  s.add("b", ValueType::Double);
  s.add("c", ValueType::String);
  s.add("m", ValueType::String);
  return s;
}

std::vector<Row> random_rows(Rng& rng, std::size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    rows.push_back(Row{random_int_cell(rng), random_int_cell(rng),
                       random_double_cell(rng), random_string_cell(rng),
                       random_any_cell(rng)});
  return rows;
}

TEST(ColumnBatchRoundTrip, LosslessOnNastyValues) {
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const auto rows = random_rows(rng, 1 + iter * 7);
    ColumnBatch batch{std::span<const Row>(rows)};
    ASSERT_EQ(batch.rows(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rows_bit_identical(batch.materialize_row(i), rows[i]))
          << "row " << i << " iter " << iter;
      EXPECT_TRUE(rows_bit_identical(batch.source_row(i), rows[i]));
    }
  }
}

TEST(ColumnBatchRoundTrip, SelectionComposesAndStaysLossless) {
  Rng rng(7);
  const auto rows = random_rows(rng, 60);
  ColumnBatch batch{std::span<const Row>(rows)};
  std::vector<std::uint32_t> odd;
  for (std::uint32_t i = 1; i < rows.size(); i += 2) odd.push_back(i);
  ColumnBatch sel1 = batch.select(odd);
  ASSERT_EQ(sel1.rows(), odd.size());
  for (std::size_t i = 0; i < odd.size(); ++i)
    EXPECT_TRUE(rows_bit_identical(sel1.materialize_row(i), rows[odd[i]]));
  // Select from the selection: every third of the odd rows.
  std::vector<std::uint32_t> third;
  for (std::uint32_t i = 0; i < odd.size(); i += 3) third.push_back(i);
  ColumnBatch sel2 = sel1.select(third);
  ASSERT_EQ(sel2.rows(), third.size());
  for (std::size_t i = 0; i < third.size(); ++i)
    EXPECT_TRUE(
        rows_bit_identical(sel2.materialize_row(i), rows[odd[third[i]]]));
}

TEST(ColumnBatchRoundTrip, IrregularBatchIsFlagged) {
  std::vector<Row> rows{{Value{1}, Value{2}}, {Value{1}}};
  ColumnBatch batch{std::span<const Row>(rows)};
  EXPECT_FALSE(batch.regular());
}

// Expressions covering every kernel: arithmetic (int/int, int/double,
// division incl. by zero), unary minus/not, IS [NOT] NULL, all six
// comparison ops across int/double/string/cross-rank operand pairs, and
// Kleene AND/OR over NULLs.
const char* const kVectorizable[] = {
    "a + 2 * d",
    "a - d",
    "a * b",
    "b + b",
    "b / a",
    "a / 0",
    "a / b",
    "-a",
    "-b",
    "not (a < d)",
    "a is null",
    "b is not null",
    "a = d",
    "a <> d",
    "a < b",
    "a <= b",
    "b > d",
    "b >= b",
    "c = 'hi'",
    "c < 'mm'",
    "c <> ''",
    "a = c",
    "c >= b",
    "a < 'zz'",
    "a < b and b <= d or not (c = '')",
    "a is null and b is null",
    "(a < 0 or b < 0) and d >= 0",
};

TEST(VectorKernels, BitIdenticalToScalarEval) {
  const Schema schema = test_schema();
  Rng rng(123);
  for (const char* text : kVectorizable) {
    BoundExpr bound(parse_expression(text), schema);
    for (int iter = 0; iter < 8; ++iter) {
      const auto rows = random_rows(rng, 50);
      ColumnBatch batch{std::span<const Row>(rows)};
      BatchVector out;
      ASSERT_TRUE(eval_expr_batch(bound, batch, out)) << text;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value expect = bound.eval(rows[i]);
        EXPECT_TRUE(bit_identical(out.value_at(i), expect))
            << text << " row " << i << ": batch="
            << out.value_at(i).to_string() << " scalar=" << expect.to_string();
        EXPECT_EQ(out.is_null(i), expect.is_null()) << text << " row " << i;
        EXPECT_EQ(out.truthy(i), is_true(expect)) << text << " row " << i;
      }
    }
  }
  // Int overflow wraps in two's complement, in the kernels as in eval().
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const struct {
    const char* text;
    std::int64_t a, d, wrapped;
  } overflows[] = {
      {"a + d", max, 1, min},  // INT64_MAX + 1
      {"a - d", min, 1, max},  // INT64_MIN - 1
      {"a * d", max, 2, -2},   // INT64_MAX * 2
      {"-a", min, 0, min},     // -INT64_MIN
  };
  for (const auto& o : overflows) {
    const std::vector<Row> rows{
        Row{Value{o.a}, Value{o.d}, Value{0.0}, Value{"x"}, Value{1}}};
    BoundExpr bound(parse_expression(o.text), schema);
    ColumnBatch batch{std::span<const Row>(rows)};
    BatchVector out;
    ASSERT_TRUE(eval_expr_batch(bound, batch, out)) << o.text;
    EXPECT_EQ(out.value_at(0).as_int(), o.wrapped) << o.text;
    EXPECT_EQ(bound.eval(rows[0]).as_int(), o.wrapped) << o.text;
  }
}

TEST(VectorKernels, MixedColumnFallsBack) {
  const Schema schema = test_schema();
  Rng rng(5);
  // Keep drawing until column m actually mixes types (near-certain).
  for (int iter = 0; iter < 8; ++iter) {
    const auto rows = random_rows(rng, 64);
    ColumnBatch batch{std::span<const Row>(rows)};
    if (batch.column(4).type() != ColType::Mixed) continue;
    BoundExpr bound(parse_expression("m is null"), schema);
    BatchVector out;
    EXPECT_FALSE(eval_expr_batch(bound, batch, out));
    return;
  }
  FAIL() << "random data never produced a Mixed column";
}

TEST(VectorKernels, CollectPassingMatchesTruthy) {
  const Schema schema = test_schema();
  Rng rng(99);
  BoundExpr bound(parse_expression("a < b or c <> ''"), schema);
  const auto rows = random_rows(rng, 200);
  ColumnBatch batch{std::span<const Row>(rows)};
  BatchVector out;
  ASSERT_TRUE(eval_expr_batch(bound, batch, out));
  std::vector<std::uint32_t> sel;
  collect_passing(out, rows.size(), sel);
  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (is_true(bound.eval(rows[i])))
      expect.push_back(static_cast<std::uint32_t>(i));
  EXPECT_EQ(sel, expect);
}

// ----------------- operator-level differential checks -----------------

std::uint64_t counter_delta(const prof::ThreadCounters& before,
                            const prof::ThreadCounters& after, int c) {
  return after.dispatch[c] - before.dispatch[c];
}

/// Runs `op` (which appends an operator's output to the vector it is
/// given) with the kernels on and then off. The rows must be
/// bit-identical and the reconciled counters must advance by the same
/// totals in both modes.
template <class Op>
void expect_modes_agree(const Op& op, const std::string& what) {
  prof::acquire_enabled();
  const auto s0 = prof::thread_snapshot();
  std::vector<Row> vec_out;
  {
    ScopedVectorized on(true);
    op(vec_out);
  }
  const auto s1 = prof::thread_snapshot();
  std::vector<Row> row_out;
  {
    ScopedVectorized off(false);
    op(row_out);
  }
  const auto s2 = prof::thread_snapshot();
  prof::release_enabled();

  ASSERT_EQ(vec_out.size(), row_out.size()) << what;
  for (std::size_t i = 0; i < vec_out.size(); ++i)
    EXPECT_TRUE(rows_bit_identical(vec_out[i], row_out[i]))
        << what << " row " << i;
  for (int c : {prof::kRowsEvaluated, prof::kAggUpdates, prof::kOperatorRows,
                prof::kCellsEncoded, prof::kCellsDecoded})
    EXPECT_EQ(counter_delta(s0, s1, c), counter_delta(s1, s2, c))
        << what << " " << prof::counter_name(c);
}

/// Descends first children from `root` to the first node of `kind`.
const PlanNode& node_of_kind(const PlanPtr& root, PlanKind kind) {
  const PlanNode* n = root.get();
  while (n->kind != kind) n = n->children.at(0).get();
  return *n;
}

TEST(BatchedOperators, FilterProjectMatchesRowPathAndCounters) {
  const Schema schema = test_schema();
  Rng rng(2024);
  const auto rows = random_rows(rng, ColumnBatch::kBatchRows * 2 + 177);
  const auto view = view_of(rows);
  BoundExpr filter(parse_expression("a < b and c <> ''"), schema);
  auto projections = bind_all(
      {parse_expression("a + d"), parse_expression("b * 2"),
       parse_expression("m"), parse_expression("c")},
      schema);
  expect_modes_agree(
      [&](std::vector<Row>& out) {
        filter_project(view, &filter, projections, out);
      },
      "filter_project");
}

TEST(BatchedOperators, AggregateRowsMatchesRowPathAndCounters) {
  Catalog cat;
  cat.register_table("t", test_schema());
  auto plan = plan_query(
      "SELECT a, count(*) AS n, sum(b) AS s, avg(d) AS v, min(b) AS lo, "
      "max(m) AS hi, count(distinct c) AS u FROM t GROUP BY a",
      cat);
  const BoundAgg agg(node_of_kind(plan, PlanKind::Agg));
  Rng rng(31337);
  const auto rows = random_rows(rng, ColumnBatch::kBatchRows + 321);
  const auto view = view_of(rows);
  expect_modes_agree(
      [&](std::vector<Row>& out) { aggregate_rows(agg, view, out); },
      "aggregate_rows");
}

// ------------------ row views around the kernel threshold ------------------

/// The last input size the row loop takes, and the first two the kernels
/// take.
constexpr std::size_t kViewSizes[] = {kKernelMinRows - 1, kKernelMinRows,
                                      kKernelMinRows + 1};

/// Every other row of `rows`, back to front: a view whose rows are
/// neither adjacent in memory nor in their owner's order.
std::vector<const Row*> scattered_view(const std::vector<Row>& rows) {
  std::vector<const Row*> view;
  for (std::size_t i = rows.size(); i >= 2; i -= 2) view.push_back(&rows[i - 1]);
  return view;
}

TEST(ColumnBatchRoundTrip, ViewBatchMatchesSpanBatch) {
  Rng rng(4242);
  const auto rows = random_rows(rng, 2 * ColumnBatch::kBatchRows);
  const auto view = scattered_view(rows);
  std::vector<Row> copy;
  for (const Row* r : view) copy.push_back(*r);
  ColumnBatch by_view{std::span<const Row* const>(view)};
  ColumnBatch by_span{std::span<const Row>(copy)};
  ASSERT_EQ(by_view.rows(), by_span.rows());
  ASSERT_EQ(by_view.columns(), by_span.columns());
  for (std::size_t c = 0; c < by_view.columns(); ++c)
    EXPECT_EQ(by_view.column(c).type(), by_span.column(c).type()) << c;
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(&by_view.source_row(i), view[i]);
    EXPECT_TRUE(rows_bit_identical(by_view.materialize_row(i), *view[i]));
    EXPECT_TRUE(rows_bit_identical(by_span.materialize_row(i), *view[i]));
  }
  std::vector<std::uint32_t> odd;
  for (std::uint32_t i = 1; i < view.size(); i += 2) odd.push_back(i);
  ColumnBatch sel = by_view.select(odd);
  ASSERT_EQ(sel.rows(), odd.size());
  for (std::size_t i = 0; i < odd.size(); ++i) {
    EXPECT_EQ(&sel.source_row(i), view[odd[i]]);
    EXPECT_TRUE(rows_bit_identical(sel.materialize_row(i), *view[odd[i]]));
  }
}

TEST(RowViewOperators, FilterProject) {
  const Schema schema = test_schema();
  BoundExpr filter(parse_expression("a < b and c <> ''"), schema);
  const auto projections = bind_all(
      {parse_expression("a + d"), parse_expression("b * 2"),
       parse_expression("m"), parse_expression("c")},
      schema);
  Rng rng(61);
  for (const std::size_t n : kViewSizes) {
    const auto rows = random_rows(rng, 2 * n);
    const auto view = scattered_view(rows);
    const std::string at = " n=" + std::to_string(n);
    expect_modes_agree(
        [&](std::vector<Row>& out) {
          filter_project(view, &filter, projections, out);
        },
        "filter+project" + at);
    expect_modes_agree(
        [&](std::vector<Row>& out) { filter_project(view, &filter, {}, out); },
        "filter only" + at);
    expect_modes_agree(
        [&](std::vector<Row>& out) {
          filter_project(view, nullptr, projections, out);
        },
        "project only" + at);
  }
}

TEST(RowViewOperators, JoinGroupEveryTypeWithNullKeys) {
  // Join key a is 0, 1 or NULL, so the group cross-matches heavily and
  // the NULL-keyed rows surface only through outer-join padding.
  Rng rng(62);
  auto join_rows = [&](std::size_t n) {
    auto rows = random_rows(rng, n);
    for (Row& r : rows)
      r[0] = rng.uniform(0, 3) == 0 ? Value::null() : Value{rng.uniform(0, 1)};
    return rows;
  };
  const Schema combined = Schema::concat(test_schema().qualified("l"),
                                         test_schema().qualified("r"));
  for (const JoinType type :
       {JoinType::Inner, JoinType::Left, JoinType::Right, JoinType::Full}) {
    GroupJoinSpec spec;
    spec.type = type;
    spec.left_width = spec.right_width = test_schema().size();
    spec.left_key_idx = {0};
    spec.right_key_idx = {0};
    spec.residual =
        BoundExpr(parse_expression("l.d < r.d or r.a is null"), combined);
    spec.projections = bind_all(
        {parse_expression("l.a"), parse_expression("r.c"),
         parse_expression("l.b + r.d")},
        combined);
    for (const std::size_t n : kViewSizes) {
      const auto left = join_rows(2 * n);
      const auto right = join_rows(2 * n);
      const auto lv = scattered_view(left);
      const auto rv = scattered_view(right);
      Row joined;
      expect_modes_agree(
          [&](std::vector<Row>& out) { join_group(spec, lv, rv, out, joined); },
          "join type " + std::to_string(static_cast<int>(type)) + " n=" +
              std::to_string(n));
    }
  }
}

TEST(RowViewOperators, Aggregation) {
  Catalog cat;
  cat.register_table("t", test_schema());
  const char* const queries[] = {
      // b carries NaN cells: a NaN group key sends the kernels' caller
      // to the row loop wholesale.
      "SELECT b, count(*) AS n, sum(a) AS s FROM t GROUP BY b",
      // int keys, count distinct and HAVING
      "SELECT a, count(*) AS n, count(distinct c) AS u, max(m) AS hi "
      "FROM t GROUP BY a HAVING n > 1",
      // string keys
      "SELECT c, avg(b) AS v, min(d) AS lo FROM t GROUP BY c",
      // global aggregation
      "SELECT count(*) AS n, sum(b) AS s, count(distinct a) AS u FROM t",
  };
  Rng rng(63);
  for (const char* sql : queries) {
    const PlanPtr plan = plan_query(sql, cat);
    const BoundAgg agg(node_of_kind(plan, PlanKind::Agg));
    for (const std::size_t n : kViewSizes) {
      const auto rows = random_rows(rng, 2 * n);
      const auto view = scattered_view(rows);
      expect_modes_agree(
          [&](std::vector<Row>& out) { aggregate_rows(agg, view, out); },
          std::string(sql) + " n=" + std::to_string(n));
    }
  }
  // Every row has one group key, as in a reduce key group whose
  // partition key is the group key: the row loop skips its map there.
  const PlanPtr keyed_plan = plan_query(queries[1], cat);
  const BoundAgg keyed(node_of_kind(keyed_plan, PlanKind::Agg));
  for (const std::size_t n : kViewSizes) {
    auto rows = random_rows(rng, 2 * n);
    for (Row& r : rows) r[0] = Value{7};
    const auto view = scattered_view(rows);
    expect_modes_agree(
        [&](std::vector<Row>& out) {
          aggregate_rows(keyed, view, out);
          EXPECT_EQ(out.size(), 1u);
        },
        "one group key n=" + std::to_string(n));
  }
  // Global aggregation over empty input still yields its one row.
  const PlanPtr global = plan_query(queries[3], cat);
  const BoundAgg agg(node_of_kind(global, PlanKind::Agg));
  expect_modes_agree(
      [&](std::vector<Row>& out) {
        aggregate_rows(agg, RowView{}, out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0][0].as_int(), 0);
      },
      "global agg over empty input");
}

TEST(RowViewOperators, SortStringKeysWithLimit) {
  Catalog cat;
  cat.register_table("t", test_schema());
  const PlanPtr plan = plan_query(
      "SELECT a, d, b, c, m FROM t ORDER BY c DESC, a LIMIT 10", cat);
  const BoundSort sort(node_of_kind(plan, PlanKind::Sort));
  Rng rng(64);
  for (const std::size_t n : kViewSizes) {
    const auto rows = random_rows(rng, 2 * n);
    const auto view = scattered_view(rows);
    expect_modes_agree(
        [&](std::vector<Row>& out) {
          sort_rows(sort, view, out);
          ASSERT_EQ(out.size(), 10u);
          for (std::size_t i = 1; i < out.size(); ++i)
            EXPECT_FALSE(out[i - 1][3] < out[i][3]) << "row " << i;
        },
        "sort n=" + std::to_string(n));
  }
}

// Typed aggregate adds must be state-identical to add(Value): feed the
// same stream through AggState twice, once as Values and once through
// add_to_agg's typed dispatch, for every aggregate function.
TEST(TypedAggAdds, MatchGenericAddForEveryFunction) {
  Rng rng(777);
  std::vector<Row> data;
  for (int i = 0; i < 500; ++i)
    data.push_back(
        Row{rng.uniform(0, 1) ? random_int_cell(rng) : random_double_cell(rng)});
  // sum{INT64_MAX, 1} wraps to INT64_MIN on both adds.
  data.push_back(Row{Value{std::numeric_limits<std::int64_t>::max()}});
  data.push_back(Row{Value{1}});
  ColumnBatch batch{std::span<const Row>(data)};

  for (const char* func : {"count", "sum", "avg", "min", "max"}) {
    AggCall call;
    call.func = func;
    AggState typed(call), generic(call);
    const ColumnVector& col = batch.column(0);
    ASSERT_EQ(col.type(), ColType::Mixed);  // ints + doubles mix
    for (std::size_t i = 0; i < data.size(); ++i) {
      const Value& v = data[i][0];
      generic.add(v);
      switch (v.type()) {
        case ValueType::Null: typed.add_null(); break;
        case ValueType::Int: typed.add_int(v.as_int()); break;
        case ValueType::Double: typed.add_double(v.as_double()); break;
        case ValueType::String: typed.add(v); break;
      }
    }
    EXPECT_TRUE(bit_identical(typed.result(), generic.result()))
        << func << ": typed=" << typed.result().to_string()
        << " generic=" << generic.result().to_string();
  }
}

}  // namespace
}  // namespace ysmart
