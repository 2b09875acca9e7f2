// Unit tests for the AST -> logical plan builder: scan filters pushdown,
// equi-key extraction, residuals, derived tables, aggregation rewriting,
// lineage propagation, labels.
#include <gtest/gtest.h>

#include "common/error.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "plan/builder.h"
#include "plan/printer.h"

namespace ysmart {
namespace {

Catalog two_tables() {
  Catalog c;
  Schema r;
  r.add("a", ValueType::Int);
  r.add("b", ValueType::Int);
  c.register_table("r", r);
  Schema s;
  s.add("a", ValueType::Int);
  s.add("c", ValueType::Int);
  c.register_table("s", s);
  Schema clicks;
  clicks.add("uid", ValueType::Int);
  clicks.add("cid", ValueType::Int);
  clicks.add("ts", ValueType::Int);
  c.register_table("clicks", clicks);
  return c;
}

TEST(PlanBuilder, SimpleScanWithFilterAndProjection) {
  auto p = plan_query("SELECT a FROM r WHERE b > 2", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Scan);
  EXPECT_EQ(p->table, "r");
  ASSERT_TRUE(p->filter != nullptr);
  ASSERT_EQ(p->output_schema.size(), 1u);
  EXPECT_EQ(p->output_schema.at(0).name, "a");
}

TEST(PlanBuilder, CommaJoinExtractsEquiKey) {
  auto p = plan_query("SELECT r.b FROM r, s WHERE r.a = s.a AND r.b < s.c",
                      two_tables());
  ASSERT_EQ(p->kind, PlanKind::Join);
  ASSERT_EQ(p->left_keys.size(), 1u);
  EXPECT_EQ(p->left_keys[0], "r.a");
  EXPECT_EQ(p->right_keys[0], "s.a");
  ASSERT_TRUE(p->filter != nullptr);  // r.b < s.c is residual
}

TEST(PlanBuilder, ReversedEquiKeyOrientation) {
  auto p = plan_query("SELECT r.b FROM r, s WHERE s.a = r.a", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Join);
  EXPECT_EQ(p->left_keys[0], "r.a");
  EXPECT_EQ(p->right_keys[0], "s.a");
}

TEST(PlanBuilder, NoEquiKeyThrows) {
  EXPECT_THROW(plan_query("SELECT r.b FROM r, s WHERE r.a < s.a", two_tables()),
               PlanError);
}

TEST(PlanBuilder, SingleTableFilterPushedToScan) {
  auto p = plan_query("SELECT r.b FROM r, s WHERE r.a = s.a AND r.b = 7",
                      two_tables());
  ASSERT_EQ(p->kind, PlanKind::Join);
  const auto& scan_r = p->children[0];
  ASSERT_EQ(scan_r->kind, PlanKind::Scan);
  ASSERT_TRUE(scan_r->filter != nullptr);
  EXPECT_EQ(scan_r->filter->to_string(), "(r.b = 7)");
}

TEST(PlanBuilder, OuterJoinDisablesPushdown) {
  auto p = plan_query(
      "SELECT r.b FROM r LEFT OUTER JOIN s ON r.a = s.a WHERE r.b = 7",
      two_tables());
  ASSERT_EQ(p->kind, PlanKind::Join);
  EXPECT_EQ(p->join_type, JoinType::Left);
  EXPECT_TRUE(p->children[0]->filter == nullptr);
  ASSERT_TRUE(p->filter != nullptr);  // WHERE stays residual (post-join)
}

TEST(PlanBuilder, SelfJoinDistinctAliases) {
  auto p = plan_query(
      "SELECT c1.uid FROM clicks c1, clicks c2 "
      "WHERE c1.uid = c2.uid AND c1.cid = 1 AND c2.cid = 2",
      two_tables());
  ASSERT_EQ(p->kind, PlanKind::Join);
  EXPECT_EQ(p->children[0]->alias, "c1");
  EXPECT_EQ(p->children[1]->alias, "c2");
  EXPECT_EQ(p->children[0]->filter->to_string(), "(c1.cid = 1)");
  EXPECT_EQ(p->children[1]->filter->to_string(), "(c2.cid = 2)");
}

TEST(PlanBuilder, JoinKeyLineageMergesAliasClasses) {
  auto p = plan_query("SELECT r.a, r.b FROM r, s WHERE r.a = s.a", two_tables());
  const Lineage& lin = p->lineage_of("a");
  EXPECT_TRUE(lin.count(ColumnId{"r", "a"}));
  EXPECT_TRUE(lin.count(ColumnId{"s", "a"}));
}

TEST(PlanBuilder, AggregationRewriting) {
  auto p = plan_query("SELECT b, count(*) - 2 AS n, sum(a) s FROM r GROUP BY b",
                      two_tables());
  ASSERT_EQ(p->kind, PlanKind::Agg);
  ASSERT_EQ(p->group_cols.size(), 1u);
  EXPECT_EQ(p->group_cols[0], "r.b");
  ASSERT_EQ(p->aggs.size(), 2u);
  EXPECT_EQ(p->aggs[0].func, "count");
  EXPECT_TRUE(p->aggs[0].star);
  EXPECT_EQ(p->aggs[1].func, "sum");
  EXPECT_EQ(p->output_schema.at(0).name, "b");
  EXPECT_EQ(p->output_schema.at(1).name, "n");
  EXPECT_EQ(p->output_schema.at(2).name, "s");
}

TEST(PlanBuilder, GroupBySelectAlias) {
  auto p = plan_query(
      "SELECT a AS k, max(b) AS m FROM r GROUP BY k", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Agg);
  EXPECT_EQ(p->group_cols[0], "r.a");
}

TEST(PlanBuilder, HavingBecomesAggPostFilter) {
  auto p = plan_query(
      "SELECT b, sum(a) AS s FROM r GROUP BY b HAVING s > 10", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Agg);
  ASSERT_TRUE(p->filter != nullptr);
  EXPECT_EQ(p->filter->to_string(), "(s > 10)");
}

TEST(PlanBuilder, HavingWithRawAggregateThrows) {
  EXPECT_THROW(plan_query("SELECT b FROM r GROUP BY b HAVING sum(a) > 10",
                          two_tables()),
               PlanError);
}

TEST(PlanBuilder, GlobalAggregationHasNoGroupCols) {
  auto p = plan_query("SELECT avg(a) FROM r", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Agg);
  EXPECT_TRUE(p->group_cols.empty());
}

TEST(PlanBuilder, GroupByComputedExpressionThrows) {
  EXPECT_THROW(plan_query("SELECT a + 1, count(*) FROM r GROUP BY a + 1",
                          two_tables()),
               PlanError);
}

TEST(PlanBuilder, NestedAggregateThrows) {
  EXPECT_THROW(plan_query("SELECT sum(max(a)) FROM r", two_tables()),
               PlanError);
}

TEST(PlanBuilder, OrderByMakesSortNode) {
  auto p = plan_query("SELECT a FROM r ORDER BY a DESC LIMIT 5", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Sort);
  ASSERT_EQ(p->sort_keys.size(), 1u);
  EXPECT_TRUE(p->sort_keys[0].desc);
  EXPECT_EQ(*p->limit, 5);
}

TEST(PlanBuilder, DerivedTableRequalified) {
  auto p = plan_query(
      "SELECT d.k FROM (SELECT a AS k, sum(b) AS s FROM r GROUP BY a) AS d "
      "WHERE d.s > 1",
      two_tables());
  // Filter over a derived table wraps in SP.
  ASSERT_EQ(p->kind, PlanKind::SP);
  EXPECT_EQ(p->children[0]->kind, PlanKind::Agg);
  EXPECT_EQ(p->output_schema.at(0).name, "k");
}

TEST(PlanBuilder, SelectStarExpandsAllColumns) {
  auto p = plan_query("SELECT * FROM r WHERE a > 1", two_tables());
  ASSERT_EQ(p->kind, PlanKind::Scan);
  ASSERT_EQ(p->output_schema.size(), 2u);
  EXPECT_EQ(p->output_schema.at(0).name, "r.a");
  EXPECT_EQ(p->output_schema.at(1).name, "r.b");
}

TEST(PlanBuilder, SelectStarOverJoinKeepsQualifiedNames) {
  auto p = plan_query("SELECT * FROM r, s WHERE r.a = s.a", two_tables());
  ASSERT_EQ(p->output_schema.size(), 4u);  // r.a, r.b, s.a, s.c
  EXPECT_TRUE(p->output_schema.find("r.a").has_value());
  EXPECT_TRUE(p->output_schema.find("s.c").has_value());
}

TEST(PlanBuilder, StarMixedWithExpressions) {
  auto p = plan_query("SELECT *, a + b AS ab FROM r", two_tables());
  ASSERT_EQ(p->output_schema.size(), 3u);
  EXPECT_EQ(p->output_schema.at(2).name, "ab");
}

TEST(PlanBuilder, UnknownTableThrows) {
  EXPECT_THROW(plan_query("SELECT x FROM missing", two_tables()), PlanError);
}

TEST(PlanBuilder, UnknownColumnThrows) {
  EXPECT_THROW(plan_query("SELECT nope FROM r", two_tables()), PlanError);
  // Unknown columns inside expressions: every projection, aggregate
  // argument, filter, HAVING and sort key binds at plan time.
  Catalog c;
  c.register_table("nation", tpch_nation_schema());
  c.register_table("orders", tpch_orders_schema());
  for (const char* sql : {
           "SELECT n_nationkey + nosuch AS x FROM nation",
           "SELECT sum(nosuch) AS s FROM nation",
           "SELECT n_name FROM nation WHERE nosuch > 1",
           "SELECT n_name FROM nation WHERE n_nationkey + nosuch > 1",
           "SELECT n_name, count(*) AS c FROM nation GROUP BY n_name "
           "HAVING nosuch > 1",
           "SELECT n_name FROM nation ORDER BY nosuch",
           "SELECT t.k + nosuch AS x FROM (SELECT o_custkey AS k, count(*) AS n "
           "FROM orders GROUP BY o_custkey) t",
       })
    EXPECT_THROW(plan_query(sql, c), PlanError) << sql;
}

TEST(PlanBuilder, LabelsAssignedInPostOrder) {
  Catalog c = two_tables();
  auto p = plan_query(
      "SELECT r.b, count(*) AS n FROM r, s WHERE r.a = s.a GROUP BY r.b "
      "ORDER BY n",
      c);
  ASSERT_EQ(p->kind, PlanKind::Sort);
  EXPECT_EQ(p->label, "SORT1");
  EXPECT_EQ(p->children[0]->label, "AGG1");
  EXPECT_EQ(p->children[0]->children[0]->label, "JOIN1");
}

// The full paper queries must all plan without errors and print.
TEST(PlanBuilder, PaperQueriesPlan) {
  Catalog c;
  Schema li;
  for (const char* col : {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity"})
    li.add(col, ValueType::Int);
  li.add("l_extendedprice", ValueType::Double);
  li.add("l_commitdate", ValueType::Int);
  li.add("l_receiptdate", ValueType::Int);
  c.register_table("lineitem", li);
  Schema o;
  o.add("o_orderkey", ValueType::Int);
  o.add("o_custkey", ValueType::Int);
  o.add("o_orderstatus", ValueType::String);
  o.add("o_totalprice", ValueType::Double);
  o.add("o_orderdate", ValueType::Int);
  c.register_table("orders", o);
  Schema pa;
  pa.add("p_partkey", ValueType::Int);
  pa.add("p_name", ValueType::String);
  c.register_table("part", pa);
  Schema cu;
  cu.add("c_custkey", ValueType::Int);
  cu.add("c_name", ValueType::String);
  c.register_table("customer", cu);
  Schema su;
  su.add("s_suppkey", ValueType::Int);
  su.add("s_name", ValueType::String);
  su.add("s_nationkey", ValueType::Int);
  c.register_table("supplier", su);
  Schema na;
  na.add("n_nationkey", ValueType::Int);
  na.add("n_name", ValueType::String);
  c.register_table("nation", na);
  Schema cl;
  cl.add("uid", ValueType::Int);
  cl.add("page_id", ValueType::Int);
  cl.add("cid", ValueType::Int);
  cl.add("ts", ValueType::Int);
  c.register_table("clicks", cl);

  for (const auto* q : queries::all()) {
    SCOPED_TRACE(q->id);
    PlanPtr p;
    ASSERT_NO_THROW(p = plan_query(q->sql, c));
    EXPECT_FALSE(print_plan(p).empty());
  }
  EXPECT_NO_THROW(plan_query(queries::q21_subtree().sql, c));
}

}  // namespace
}  // namespace ysmart
