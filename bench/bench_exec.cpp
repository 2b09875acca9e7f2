// Execution-kernel micro-benchmark: host wall-clock of the map/reduce
// inner loops — filter, project, grouped aggregate — with the columnar
// batch kernels (exec/vector_kernels.h) against the per-row
// std::variant-dispatch path (YSMART_VECTORIZED=off), at three input
// sizes. Both modes run the identical operators from exec/operators.h
// over identical rows, so the difference isolates the execution strategy
// itself.
//
// The data and expressions are shaped like the fig09/fig10 map phases: a
// TPC-H lineitem-style table, a two-conjunct numeric filter, an
// arithmetic projection (price * (1 - discount)) and a grouped
// sum/avg/count. The two modes' output rows of every phase must agree bit
// for bit; the bench exits non-zero when they do not.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "plan/builder.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace {

using namespace ysmart;
using namespace ysmart::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Schema lineitem_schema() {
  Schema s;
  s.add("l_orderkey", ValueType::Int);
  s.add("l_suppkey", ValueType::Int);
  s.add("l_quantity", ValueType::Double);
  s.add("l_extendedprice", ValueType::Double);
  s.add("l_discount", ValueType::Double);
  s.add("l_tax", ValueType::Double);
  return s;
}

std::vector<Row> make_rows(std::size_t n) {
  Rng rng(20110607 + static_cast<std::uint64_t>(n));
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(Row{
        Value{static_cast<std::int64_t>(i / 4)},
        Value{rng.uniform(0, 99)},
        Value{1.0 + static_cast<double>(rng.uniform(0, 49))},
        Value{901.0 + rng.uniform01() * 104'000.0},
        Value{0.01 * static_cast<double>(rng.uniform(0, 10))},
        Value{0.01 * static_cast<double>(rng.uniform(0, 8))},
    });
  }
  return rows;
}

struct PhaseRun {
  double filter_ms = 0;
  double project_ms = 0;
  double agg_ms = 0;
  std::vector<Row> filtered, projected, grouped;  // each phase's output
  double total_ms() const { return filter_ms + project_ms + agg_ms; }
};

/// Time one pass of the three operator shapes over `rows` under the
/// currently-set execution mode.
PhaseRun time_phases(RowView rows, const BoundExpr& filter,
                     const std::vector<BoundExpr>& projections,
                     const BoundAgg& agg) {
  PhaseRun t;
  double t0 = now_ms();
  filter_project(rows, &filter, {}, t.filtered);
  t.filter_ms = now_ms() - t0;

  t0 = now_ms();
  filter_project(rows, &filter, projections, t.projected);
  t.project_ms = now_ms() - t0;

  t0 = now_ms();
  aggregate_rows(agg, rows, t.grouped);
  t.agg_ms = now_ms() - t0;
  return t;
}

/// Same type, and for doubles the same bits (NaN payloads, -0.0).
bool bit_identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::Null: return true;
    case ValueType::Int: return a.as_int() == b.as_int();
    case ValueType::Double:
      return std::bit_cast<std::uint64_t>(a.as_double()) ==
             std::bit_cast<std::uint64_t>(b.as_double());
    case ValueType::String: return a.as_string() == b.as_string();
  }
  return false;
}

/// Prints the first difference between the two modes' output of one
/// phase; true when they agree row for row, bit for bit.
bool outputs_agree(const char* phase, std::size_t n, const std::vector<Row>& vec,
                   const std::vector<Row>& row) {
  if (vec.size() != row.size()) {
    std::printf("ERROR: %zu rows, %s: vec mode output %zu rows, row mode %zu\n",
                n, phase, vec.size(), row.size());
    return false;
  }
  for (std::size_t i = 0; i < vec.size(); ++i) {
    const bool same =
        vec[i].size() == row[i].size() &&
        std::equal(vec[i].begin(), vec[i].end(), row[i].begin(), bit_identical);
    if (!same) {
      std::printf("ERROR: %zu rows, %s: row %zu differs: vec %s, row %s\n", n,
                  phase, i, row_to_string(vec[i]).c_str(),
                  row_to_string(row[i]).c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  print_header("Exec kernels: columnar batches vs per-row variant dispatch");

  constexpr std::size_t kSizes[] = {50'000, 200'000, 800'000};
  constexpr int kReps = 3;  // best-of to damp scheduler noise

  const Schema schema = lineitem_schema();
  BoundExpr filter(parse_expression("l_quantity < 24.0 and l_discount >= 0.02"),
                   schema);
  const std::vector<BoundExpr> projections = bind_all(
      {parse_expression("l_extendedprice * (1 - l_discount)"),
       parse_expression("l_orderkey + l_suppkey"),
       parse_expression("l_quantity * (1 + l_tax)")},
      schema);
  Catalog catalog;
  catalog.register_table("lineitem", schema);
  const PlanPtr agg_plan = plan_query(
      "SELECT l_suppkey, count(*) AS n, sum(l_extendedprice) AS s, "
      "avg(l_quantity) AS q FROM lineitem GROUP BY l_suppkey",
      catalog);
  const PlanNode* agg_node = agg_plan.get();
  // plan_query may wrap the Agg in a projection-only SP; unwrap to bench
  // the aggregation operator itself.
  while (agg_node->kind != PlanKind::Agg) agg_node = agg_node->children.at(0).get();
  const BoundAgg agg(*agg_node);

  const bool saved = vectorized_enabled();
  bool agree = true;
  std::printf("%10s %5s %10s %10s %10s %10s\n", "rows", "mode", "filter ms",
              "project ms", "agg ms", "total ms");
  for (const std::size_t n : kSizes) {
    const auto rows = make_rows(n);
    const auto view = view_of(rows);
    PhaseRun best[2];
    for (const bool vec : {true, false}) {
      set_vectorized_enabled(vec);
      PhaseRun& t = best[vec ? 0 : 1];
      for (int rep = 0; rep < kReps; ++rep) {
        PhaseRun cur = time_phases(view, filter, projections, agg);
        if (rep == 0 || cur.total_ms() < t.total_ms()) t = std::move(cur);
      }
      std::printf("%10zu %5s %10.2f %10.2f %10.2f %10.2f\n", n,
                  vec ? "vec" : "row", t.filter_ms, t.project_ms, t.agg_ms,
                  t.total_ms());
    }
    agree &= outputs_agree("filter", n, best[0].filtered, best[1].filtered);
    agree &= outputs_agree("project", n, best[0].projected, best[1].projected);
    agree &= outputs_agree("aggregate", n, best[0].grouped, best[1].grouped);
    std::printf("%10s %5s speedup vec vs row: %.2fx (filter %.2fx, project "
                "%.2fx, agg %.2fx)\n",
                "", "", best[1].total_ms() / best[0].total_ms(),
                best[1].filter_ms / best[0].filter_ms,
                best[1].project_ms / best[0].project_ms,
                best[1].agg_ms / best[0].agg_ms);
  }
  set_vectorized_enabled(saved);
  // The modes must compute the same rows; a difference fails the run.
  return agree ? 0 : 1;
}
