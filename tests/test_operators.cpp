// Unit tests for the row-vector operators: filter/project, group join
// (inner + all outer flavors, residuals, padding), hash join, grouped
// aggregation, sorting.
#include <gtest/gtest.h>

#include "exec/operators.h"
#include "plan/builder.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

Schema xy() {
  Schema s;
  s.add("x", ValueType::Int);
  s.add("y", ValueType::Int);
  return s;
}

// Whole-vector wrappers over the row-view operators.

std::vector<Row> filter_project(const std::vector<Row>& in,
                                const BoundExpr* filter,
                                const std::vector<BoundExpr>& projections) {
  std::vector<Row> out;
  ysmart::filter_project(view_of(in), filter, projections, out);
  return out;
}

std::vector<Row> join_group(const GroupJoinSpec& spec,
                            const std::vector<Row>& left,
                            const std::vector<Row>& right) {
  std::vector<Row> out;
  Row joined;
  ysmart::join_group(spec, view_of(left), view_of(right), out, joined);
  return out;
}

std::vector<Row> hash_join(const PlanNode& join, const std::vector<Row>& left,
                           const std::vector<Row>& right) {
  std::vector<Row> out;
  ysmart::hash_join(GroupJoinSpec(join), view_of(left), view_of(right), out);
  return out;
}

std::vector<Row> aggregate_rows(const PlanNode& agg, const std::vector<Row>& in) {
  std::vector<Row> out;
  ysmart::aggregate_rows(BoundAgg(agg), view_of(in), out);
  return out;
}

std::vector<Row> sort_rows(const PlanNode& sort, const std::vector<Row>& in) {
  std::vector<Row> out;
  ysmart::sort_rows(BoundSort(sort), view_of(in), out);
  return out;
}

TEST(FilterProject, FilterOnly) {
  BoundExpr f(parse_expression("x > 1"), xy());
  auto out = filter_project({{Value{1}, Value{10}}, {Value{2}, Value{20}}},
                            &f, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 2);
}

TEST(FilterProject, ProjectOnly) {
  auto projections = bind_all({parse_expression("y + 1")}, xy());
  auto out = filter_project({{Value{1}, Value{10}}}, nullptr, projections);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 11);
}

TEST(FilterProject, NullFilterDropsRow) {
  BoundExpr f(parse_expression("x > y"), xy());
  auto out = filter_project({{Value::null(), Value{1}}}, &f, {});
  EXPECT_TRUE(out.empty());  // NULL comparison is not true
}

struct JoinFixture {
  // left rows: (k, a); right rows: (k, b)
  GroupJoinSpec spec;
  JoinFixture() {
    spec.left_width = 2;
    spec.right_width = 2;
    spec.left_key_idx = {0};
    spec.right_key_idx = {0};
  }
};

TEST(GroupJoin, InnerCrossMatches) {
  JoinFixture f;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}, {Value{1}, Value{11}}},
                        {{Value{1}, Value{20}}, {Value{1}, Value{21}}});
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].size(), 4u);
}

TEST(GroupJoin, InnerNoMatchEmitsNothing) {
  JoinFixture f;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {});
  EXPECT_TRUE(out.empty());
}

TEST(GroupJoin, LeftOuterPadsUnmatched) {
  JoinFixture f;
  f.spec.type = JoinType::Left;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0][2].is_null());
  EXPECT_TRUE(out[0][3].is_null());
}

TEST(GroupJoin, RightOuterPadsUnmatched) {
  JoinFixture f;
  f.spec.type = JoinType::Right;
  auto out = join_group(f.spec, {}, {{Value{2}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0][0].is_null());
  EXPECT_EQ(out[0][2].as_int(), 2);
}

TEST(GroupJoin, FullOuterPadsBothSides) {
  JoinFixture f;
  f.spec.type = JoinType::Full;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {{Value{2}, Value{20}}});
  EXPECT_EQ(out.size(), 2u);  // both unmatched, both padded
}

TEST(GroupJoin, NullKeysNeverMatch) {
  JoinFixture f;
  auto out = join_group(f.spec, {{Value::null(), Value{10}}},
                        {{Value::null(), Value{20}}});
  EXPECT_TRUE(out.empty());
}

TEST(GroupJoin, ResidualAppliesAfterPadding) {
  // WHERE-style residual "right key IS NULL" keeps only padded rows.
  JoinFixture f;
  f.spec.type = JoinType::Left;
  Schema combined;
  combined.add("lk", ValueType::Int);
  combined.add("a", ValueType::Int);
  combined.add("rk", ValueType::Int);
  combined.add("b", ValueType::Int);
  f.spec.residual = BoundExpr(parse_expression("rk IS NULL"), combined);
  auto out = join_group(f.spec,
                        {{Value{1}, Value{10}}, {Value{2}, Value{11}}},
                        {{Value{1}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 2);
}

TEST(GroupJoin, ProjectionsShapeOutput) {
  JoinFixture f;
  Schema combined;
  combined.add("lk", ValueType::Int);
  combined.add("a", ValueType::Int);
  combined.add("rk", ValueType::Int);
  combined.add("b", ValueType::Int);
  f.spec.projections = bind_all({parse_expression("a + b")}, combined);
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {{Value{1}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 30);
}

// hash_join must agree with join_group bucketing on a plan-built join.
TEST(HashJoin, MatchesExpectedRows) {
  Catalog c;
  c.register_table("l", xy());
  Schema rz;
  rz.add("x", ValueType::Int);
  rz.add("z", ValueType::Int);
  c.register_table("r", rz);
  auto p = plan_query("SELECT y, z FROM l, r WHERE l.x = r.x", c);
  std::vector<Row> left{{Value{1}, Value{10}}, {Value{2}, Value{20}},
                        {Value::null(), Value{30}}};
  std::vector<Row> right{{Value{1}, Value{100}}, {Value{1}, Value{101}},
                         {Value{3}, Value{300}}};
  auto out = hash_join(*p, left, right);
  ASSERT_EQ(out.size(), 2u);  // key 1 matches twice; null and 2/3 don't
}

TEST(AggregateRows, GroupsAndProjects) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, sum(y) + 1 AS s FROM t GROUP BY x", c);
  auto out = aggregate_rows(
      *p, {{Value{1}, Value{10}}, {Value{1}, Value{5}}, {Value{2}, Value{7}}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].as_int(), 1);
  EXPECT_EQ(out[0][1].as_int(), 16);
  EXPECT_EQ(out[1][1].as_int(), 8);
}

TEST(AggregateRows, GlobalAggOnEmptyInputYieldsOneRow) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT count(*) AS n, sum(y) AS s FROM t", c);
  auto out = aggregate_rows(*p, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 0);
  EXPECT_TRUE(out[0][1].is_null());
}

TEST(AggregateRows, GroupedAggOnEmptyInputYieldsNothing) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, count(*) FROM t GROUP BY x", c);
  EXPECT_TRUE(aggregate_rows(*p, {}).empty());
}

TEST(SortRows, DescAndLimit) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, y FROM t ORDER BY y DESC LIMIT 2", c);
  auto out = sort_rows(*p, {{Value{1}, Value{5}},
                            {Value{2}, Value{9}},
                            {Value{3}, Value{7}}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][1].as_int(), 9);
  EXPECT_EQ(out[1][1].as_int(), 7);
}

TEST(SortRows, StableOnTies) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, y FROM t ORDER BY x", c);
  auto out = sort_rows(*p, {{Value{1}, Value{1}},
                            {Value{1}, Value{2}},
                            {Value{0}, Value{3}}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1][1].as_int(), 1);  // original order kept within ties
  EXPECT_EQ(out[2][1].as_int(), 2);
}

}  // namespace
}  // namespace ysmart
