// Property-based differential testing: random data sets (including NULLs
// and skewed keys) are pushed through a family of query shapes; the
// simulated MapReduce execution under every translator profile must
// produce exactly the reference engine's rows.
//
// Parameterized over (data seed x query template) via TEST_P.
#include <gtest/gtest.h>

#include "api/database.h"
#include "common/rng.h"

namespace ysmart {
namespace {

std::shared_ptr<Table> random_fact(std::uint64_t seed, int rows) {
  Schema s;
  s.add("k", ValueType::Int);
  s.add("a", ValueType::Int);
  s.add("b", ValueType::Int);
  auto t = std::make_shared<Table>(s);
  Rng rng(seed);
  const Zipf key(20, 1.0);
  for (int i = 0; i < rows; ++i) {
    // Skewed keys, occasional NULLs in every column.
    Row r;
    r.push_back(rng.uniform01() < 0.05 ? Value::null() : Value{key(rng)});
    r.push_back(rng.uniform01() < 0.05 ? Value::null()
                                       : Value{rng.uniform(-50, 50)});
    r.push_back(rng.uniform01() < 0.05 ? Value::null()
                                       : Value{rng.uniform(0, 9)});
    t->append(std::move(r));
  }
  return t;
}

std::shared_ptr<Table> random_dim(std::uint64_t seed, int rows) {
  Schema s;
  s.add("k", ValueType::Int);
  s.add("c", ValueType::Int);
  s.add("name", ValueType::String);
  auto t = std::make_shared<Table>(s);
  Rng rng(seed * 31 + 7);
  const Zipf cat(6, 0.7);
  for (int i = 0; i < rows; ++i) {
    t->append({rng.uniform01() < 0.05 ? Value::null()
                                      : Value{rng.uniform(1, 25)},
               Value{rng.uniform(0, 5)},
               rng.uniform01() < 0.08
                   ? Value::null()
                   : Value{"cat" + std::to_string(cat(rng))}});
  }
  return t;
}

const char* kTemplates[] = {
    // plain select-project
    "SELECT a, b FROM f WHERE a > 0",
    // grouped aggregation, all functions
    "SELECT b, count(*) AS n, sum(a) AS s, avg(a) AS v, min(a) AS mn, "
    "max(a) AS mx FROM f GROUP BY b",
    // global aggregation
    "SELECT count(*) AS n, sum(a) AS s FROM f",
    // count distinct
    "SELECT b, count(distinct k) AS d FROM f GROUP BY b",
    // inner join
    "SELECT a, c FROM f, d WHERE f.k = d.k",
    // inner join + filters + residual
    "SELECT a, c FROM f, d WHERE f.k = d.k AND a > -10 AND c < b",
    // left outer join with IS NULL residual
    "SELECT a FROM f LEFT OUTER JOIN d ON f.k = d.k WHERE d.c IS NULL",
    // join then aggregation on the join key (JFC shape)
    "SELECT f.k, count(*) AS n FROM f, d WHERE f.k = d.k GROUP BY f.k",
    // aggregation over derived join, plus order/limit
    "SELECT b, sum(a) AS s FROM f, d WHERE f.k = d.k GROUP BY b "
    "ORDER BY s DESC, b LIMIT 5",
    // self join (shared scan path)
    "SELECT f1.a, f2.b FROM f AS f1, f AS f2 "
    "WHERE f1.k = f2.k AND f1.b = 1 AND f2.b = 2",
    // aggregation-over-aggregation (JFC chain)
    "SELECT m, count(*) AS n FROM "
    "(SELECT k, max(a) AS m FROM f GROUP BY k) AS g GROUP BY m",
    // derived join of two aggregations over the same table (Rule 1 + 3)
    "SELECT x.k, x.s, y.d FROM "
    "(SELECT k, sum(a) AS s FROM f GROUP BY k) AS x, "
    "(SELECT k, count(distinct b) AS d FROM f GROUP BY k) AS y "
    "WHERE x.k = y.k",
    // right outer join
    "SELECT a, c FROM f RIGHT OUTER JOIN d ON f.k = d.k",
    // full outer join with residual
    "SELECT a, c FROM f FULL OUTER JOIN d ON f.k = d.k WHERE a IS NULL OR c > 1",
    // global sort (single-reducer SORT job) with expressions
    "SELECT k, a FROM f WHERE b = 3 ORDER BY a DESC, k LIMIT 17",
    // three-way join
    "SELECT f1.a, d.c, f2.b FROM f AS f1, d, f AS f2 "
    "WHERE f1.k = d.k AND d.k = f2.k AND f1.b = 0 AND f2.b = 1",
    // arithmetic in projections and aggregates
    "SELECT b, sum(a + 1) AS s, avg(a * 2) AS v, count(*) - 1 AS n "
    "FROM f GROUP BY b",
    // aggregation directly over an outer join (padded rows feed the agg)
    "SELECT c, count(*) AS n FROM f LEFT OUTER JOIN d ON f.k = d.k GROUP BY c",
    // the paper's Fig. 7 shape: a JOIN with job-flow correlation to one
    // preceding job while the other preceding job must be ordered first
    // (Rule 4 with child exchange)
    "SELECT j.k, j.s, a2.c2 FROM "
    "(SELECT f.k AS k, sum(a) AS s FROM f, d WHERE f.k = d.k GROUP BY f.k) "
    "AS j, "
    "(SELECT b AS bk, count(*) AS c2 FROM f GROUP BY b) AS a2 "
    "WHERE j.k = a2.bk",
    // HAVING over a grouped aggregation (plain and combinable paths)
    "SELECT b, sum(a) AS s FROM f GROUP BY b HAVING s > 0",
    "SELECT b, count(distinct k) AS n FROM f GROUP BY b HAVING n > 2",
    // HAVING over a join-fed aggregation inside a derived table
    "SELECT g.k FROM (SELECT f.k, count(*) AS n FROM f, d WHERE f.k = d.k "
    "GROUP BY f.k HAVING n > 3) AS g",
    // string grouping keys (NULL group included)
    "SELECT name, count(*) AS n, min(c) AS mn FROM d GROUP BY name",
    // string predicates and projection through a join
    "SELECT a, name FROM f, d WHERE f.k = d.k AND name <> 'cat2'",
    // string sort keys, both directions
    "SELECT name, c FROM d WHERE name IS NOT NULL ORDER BY name, c LIMIT 9",
    "SELECT name, c FROM d ORDER BY name DESC, c LIMIT 9",
    // string aggregates (min/max over strings, count distinct strings)
    "SELECT c, max(name) AS mx, count(distinct name) AS dn FROM d GROUP BY c",
    // SELECT * through a filter and through a join
    "SELECT * FROM d WHERE c > 1",
    "SELECT * FROM f, d WHERE f.k = d.k AND a > 0",
};

using Param = std::tuple<int, std::uint64_t>;  // (template idx, data seed)

class DifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(DifferentialTest, MapReduceMatchesReference) {
  const auto [tmpl_idx, seed] = GetParam();
  const std::string sql = kTemplates[tmpl_idx];

  Database db(ClusterConfig::small_local(1.0));
  db.create_table("f", random_fact(seed, 400));
  db.create_table("d", random_dim(seed, 60));

  Table expected = db.run_reference(sql);
  for (const auto& profile :
       {TranslatorProfile::ysmart(), TranslatorProfile::hive(),
        TranslatorProfile::pig(), TranslatorProfile::mrshare()}) {
    SCOPED_TRACE(profile.name);
    auto run = db.run(sql, profile);
    EXPECT_TRUE(same_rows_unordered(expected, *run.result))
        << sql << "\nexpected " << expected.row_count() << " rows, got "
        << run.result->row_count() << "\nexpected:\n"
        << expected.to_string(8) << "got:\n"
        << run.result->to_string(8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplatesAndSeeds, DifferentialTest,
    ::testing::Combine(::testing::Range(0, 29),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "tmpl" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Larger single-seed sweep over row counts, including the empty table,
// under the combiner (ysmart, hive) and plain MapReduce (pig) paths.
class SizeSweepTest : public ::testing::TestWithParam<int> {
 protected:
  void expect_matches_reference(const std::string& sql) {
    const int rows = GetParam();
    Database db(ClusterConfig::small_local(1.0));
    db.create_table("f", random_fact(99, rows));
    db.create_table("d", random_dim(99, rows / 4 + 1));
    Table expected = db.run_reference(sql);
    for (const auto& profile :
         {TranslatorProfile::ysmart(), TranslatorProfile::hive(),
          TranslatorProfile::pig()}) {
      SCOPED_TRACE(profile.name);
      auto run = db.run(sql, profile);
      ASSERT_FALSE(run.metrics.failed());
      EXPECT_TRUE(same_rows_unordered(expected, *run.result))
          << sql << "\nexpected:\n" << expected.to_string(8) << "got:\n"
          << run.result->to_string(8);
    }
  }
};

TEST_P(SizeSweepTest, JoinAggPipelineMatchesReference) {
  expect_matches_reference(
      "SELECT f.k, count(*) AS n, sum(a) AS s FROM f, d WHERE f.k = d.k "
      "GROUP BY f.k");
}

// A global aggregation yields exactly one row, also over no rows at all.
TEST_P(SizeSweepTest, GlobalAggregationMatchesReference) {
  expect_matches_reference("SELECT count(*) AS n, sum(a) AS s FROM f");
}

// a is drawn from [-50, 50], so this filter empties every table.
TEST_P(SizeSweepTest, EmptyingFilterMatchesReference) {
  expect_matches_reference(
      "SELECT count(*) AS n, sum(a) AS s, min(b) AS m FROM f WHERE a > 1000");
  expect_matches_reference(
      "SELECT b, count(*) AS n FROM f WHERE a > 1000 GROUP BY b");
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweepTest,
                         ::testing::Values(0, 1, 2, 7, 64, 500, 2000));

// Orthogonal runtime features must never change results: compression,
// task-failure injection, cost-based PK selection, include-list tags.
class FeatureMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(FeatureMatrixTest, FeatureCombinationsPreserveResults) {
  const int features = GetParam();
  auto cluster = ClusterConfig::small_local(1.0);
  if (features & 1) cluster.compression.enabled = true;
  if (features & 2) {
    cluster.task_failure_rate = 0.25;
    cluster.contention.seed = 1234;
  }
  Database db(cluster);
  db.create_table("f", random_fact(5, 300));
  db.create_table("d", random_dim(5, 50));
  auto profile = TranslatorProfile::ysmart();
  if (features & 4) profile.cost_based_pk = true;
  if (features & 8) profile.tag_encoding = TagEncoding::IncludeList;

  const std::string sql =
      "SELECT f.k, count(*) AS n, sum(a) AS s FROM f, d WHERE f.k = d.k "
      "GROUP BY f.k HAVING n > 1";
  Table expected = db.run_reference(sql);
  auto run = db.run(sql, profile);
  EXPECT_TRUE(same_rows_unordered(expected, *run.result));
  EXPECT_FALSE(run.metrics.failed());
}

INSTANTIATE_TEST_SUITE_P(AllCombos, FeatureMatrixTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace ysmart
