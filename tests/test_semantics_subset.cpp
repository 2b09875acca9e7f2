// Pins the documented subset restrictions and semantic choices (README
// "Scope and subset restrictions") so deviations stay intentional.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "api/database.h"
#include "common/error.h"
#include "plan/builder.h"

namespace ysmart {
namespace {

class SubsetTest : public ::testing::Test {
 protected:
  SubsetTest() : db_(ClusterConfig::small_local(1.0)) {
    Schema f;
    f.add("k", ValueType::Int);
    f.add("a", ValueType::Int);
    auto ft = std::make_shared<Table>(f);
    ft->append({Value{1}, Value{10}});
    ft->append({Value{2}, Value{20}});
    db_.create_table("f", ft);
    Schema d;
    d.add("k", ValueType::Int);
    d.add("c", ValueType::Int);
    auto dt = std::make_shared<Table>(d);
    dt->append({Value{1}, Value{5}});
    db_.create_table("d", dt);
  }
  Database db_;
};

TEST_F(SubsetTest, Int64ArithmeticWraps) {
  // Documented semantic choice: Hive's BIGINT is a Java long, so + - *,
  // unary minus and sum wrap in two's complement. The reference executor
  // (row path) and the MapReduce run (batch kernels on the map side,
  // typed aggregate adds) give the same wrapped values.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  Schema s;
  s.add("k", ValueType::Int);
  s.add("g", ValueType::Int);
  auto t = std::make_shared<Table>(s);
  t->append({Value{max}, Value{0}});
  t->append({Value{1}, Value{0}});
  t->append({Value{min}, Value{1}});
  db_.create_table("big", t);
  auto rows_of = [](const Table& r) {
    std::vector<std::vector<std::int64_t>> out;
    for (const auto& row : r.rows()) {
      out.emplace_back();
      for (const auto& v : row) out.back().push_back(v.as_int());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const struct {
    const char* sql;
    std::vector<std::vector<std::int64_t>> want;
  } cases[] = {
      {"SELECT k + 1 AS p, k - 1 AS m, k * 2 AS t, -k AS n FROM big "
       "WHERE k <> 1",
       {{min, max - 1, -2, min + 1}, {min + 1, max, 0, min}}},
      {"SELECT g, sum(k) AS s FROM big GROUP BY g", {{0, min}, {1, min}}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(rows_of(db_.run_reference(c.sql)), c.want) << c.sql;
    const auto run = db_.run(c.sql, TranslatorProfile::ysmart());
    ASSERT_NE(run.result, nullptr) << c.sql;
    EXPECT_EQ(rows_of(*run.result), c.want) << c.sql;
  }
}

TEST_F(SubsetTest, ThetaJoinRejected) {
  EXPECT_THROW(db_.plan("SELECT a FROM f, d WHERE f.k < d.k"), PlanError);
}

TEST_F(SubsetTest, CrossJoinRejected) {
  EXPECT_THROW(db_.plan("SELECT a FROM f, d"), PlanError);
}

TEST_F(SubsetTest, DistinctOnlyInsideCount) {
  EXPECT_THROW(db_.run("SELECT sum(distinct a) FROM f",
                       TranslatorProfile::ysmart()),
               ExecError);
}

TEST_F(SubsetTest, GroupByComputedExpressionRejected) {
  EXPECT_THROW(db_.plan("SELECT k + 1, count(*) FROM f GROUP BY k + 1"),
               PlanError);
}

TEST_F(SubsetTest, HavingWithRawAggregateRejected) {
  EXPECT_THROW(db_.plan("SELECT k FROM f GROUP BY k HAVING sum(a) > 1"),
               PlanError);
}

// Documented semantic choice: with an outer join present, every WHERE
// conjunct (and single-side ON residual) evaluates after the join, i.e.
// padded rows are visible to it.
TEST_F(SubsetTest, OuterJoinWherePostJoinSemantics) {
  // f has k=1 (matching d) and k=2 (padded). WHERE c IS NULL keeps only
  // the padded row — proving the filter ran after padding.
  Table t = db_.run_reference(
      "SELECT f.k AS fk FROM f LEFT OUTER JOIN d ON f.k = d.k WHERE d.c IS NULL");
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.rows()[0][0].as_int(), 2);
  auto run = db_.run(
      "SELECT f.k AS fk FROM f LEFT OUTER JOIN d ON f.k = d.k WHERE d.c IS NULL",
      TranslatorProfile::ysmart());
  EXPECT_TRUE(same_rows_unordered(t, *run.result));
}

// Documented: ORDER BY keys must appear in the select list.
TEST_F(SubsetTest, OrderByMustUseOutputColumns) {
  EXPECT_THROW(
      db_.run("SELECT k FROM f ORDER BY a", TranslatorProfile::ysmart()),
      PlanError);
}

// Scalar (non-aggregate) function calls are not part of the subset.
TEST_F(SubsetTest, ScalarFunctionsRejected) {
  EXPECT_THROW(db_.run("SELECT abs(a) FROM f", TranslatorProfile::ysmart()),
               Error);
}

// Derived tables require an alias (standard SQL, enforced).
TEST_F(SubsetTest, DerivedTableAliasRequired) {
  EXPECT_THROW(db_.plan("SELECT x FROM (SELECT a AS x FROM f)"), ParseError);
}

}  // namespace
}  // namespace ysmart
