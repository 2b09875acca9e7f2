#include "refdb/refdb.h"

#include "common/error.h"
#include "exec/operators.h"

namespace ysmart {

namespace {

struct ExecStats {
  std::uint64_t bytes_scanned = 0;
  std::uint64_t rows_processed = 0;
};

// Each plan node is visited once, so every node is bound exactly once.
std::vector<Row> run(const PlanPtr& node, const TableSource& tables,
                     ExecStats& stats) {
  std::vector<Row> out;
  switch (node->kind) {
    case PlanKind::Scan: {
      auto t = tables(node->table);
      if (!t) throw ExecError("refdb: no data for table " + node->table);
      stats.bytes_scanned += t->byte_size();
      stats.rows_processed += t->row_count();
      // Scan filters/projections reference alias-qualified names; they
      // bind against the qualified schema, and the base rows match it
      // positionally.
      const Schema qualified =
          t->schema().qualified(node->alias.empty() ? node->table : node->alias);
      BoundExpr filter;
      if (node->filter) filter = BoundExpr(node->filter, qualified);
      filter_project(*t, &filter, bind_all(node->projections, qualified), out);
      return out;
    }
    case PlanKind::SP: {
      auto in = run(node->children[0], tables, stats);
      stats.rows_processed += in.size();
      const Schema& child = node->children[0]->output_schema;
      BoundExpr filter;
      if (node->filter) filter = BoundExpr(node->filter, child);
      filter_project(view_of(in), &filter, bind_all(node->projections, child),
                     out);
      return out;
    }
    case PlanKind::Join: {
      auto left = run(node->children[0], tables, stats);
      auto right = run(node->children[1], tables, stats);
      stats.rows_processed += left.size() + right.size();
      hash_join(GroupJoinSpec(*node), view_of(left), view_of(right), out);
      return out;
    }
    case PlanKind::Agg: {
      auto in = run(node->children[0], tables, stats);
      stats.rows_processed += in.size();
      aggregate_rows(BoundAgg(*node), view_of(in), out);
      return out;
    }
    case PlanKind::Sort: {
      auto in = run(node->children[0], tables, stats);
      stats.rows_processed += in.size();
      sort_rows(BoundSort(*node), view_of(in), out);
      return out;
    }
  }
  throw InternalError("refdb: unknown plan kind");
}

}  // namespace

Table execute_plan_ref(const PlanPtr& plan, const TableSource& tables) {
  ExecStats stats;
  auto rows = run(plan, tables, stats);
  return Table(plan->output_schema, std::move(rows));
}

DbmsRunResult execute_plan_dbms(const PlanPtr& plan, const TableSource& tables,
                                const DbmsCostConfig& cfg) {
  ExecStats stats;
  auto rows = run(plan, tables, stats);
  DbmsRunResult r{Table(plan->output_schema, std::move(rows)), 0,
                  stats.bytes_scanned, stats.rows_processed};
  const double scanned_mb =
      static_cast<double>(stats.bytes_scanned) * cfg.sim_scale / (1024.0 * 1024);
  const double scan_s = scanned_mb / cfg.scan_mb_per_s;
  const double cpu_s = static_cast<double>(stats.rows_processed) *
                       cfg.sim_scale * cfg.row_cpu_us * 1e-6;
  r.sim_seconds = (scan_s + cpu_s) / cfg.parallelism;
  return r;
}

}  // namespace ysmart
