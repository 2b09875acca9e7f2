#include "plan/builder.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"
#include "exec/operators.h"
#include "sql/parser.h"

namespace ysmart {

namespace {

void split_and(const ExprPtr& e, std::vector<ExprPtr>& out) {
  if (!e) return;
  if (e->kind == ExprKind::Binary && e->op == "and") {
    split_and(e->args[0], out);
    split_and(e->args[1], out);
    return;
  }
  out.push_back(e);
}

ExprPtr conjoin(ExprPtr a, ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return Expr::make_binary("and", std::move(a), std::move(b));
}

void collect_column_refs(const ExprPtr& e, std::vector<std::string>& out) {
  if (!e) return;
  if (e->kind == ExprKind::ColumnRef) out.push_back(e->column);
  for (const auto& a : e->args) collect_column_refs(a, out);
}

/// True if every column reference in `e` resolves in `schema`.
bool resolvable_in(const ExprPtr& e, const Schema& schema) {
  std::vector<std::string> refs;
  collect_column_refs(e, refs);
  for (const auto& r : refs) {
    try {
      if (!schema.find(r)) return false;
    } catch (const PlanError&) {
      return false;  // ambiguous within this schema
    }
  }
  return true;
}

/// Deep copy an expression tree.
ExprPtr clone(const ExprPtr& e) {
  if (!e) return nullptr;
  auto c = std::make_shared<Expr>(*e);
  for (auto& a : c->args) a = clone(a);
  return c;
}

class Builder {
 public:
  explicit Builder(const Catalog& catalog) : catalog_(catalog) {}

  PlanPtr build(const SelectStmt& stmt_in) {
    SelectStmt s = stmt_in;  // local copy so SELECT * can be expanded

    // ---- 1. sources ----
    std::vector<PlanPtr> sources;
    for (const auto& ref : s.from) {
      if (ref.is_subquery()) {
        PlanPtr sub = build(*ref.subquery);
        if (ref.alias.empty())
          throw PlanError("derived table requires an alias");
        sub->output_schema = sub->output_schema.qualified(ref.alias);
        sources.push_back(std::move(sub));
      } else {
        sources.push_back(make_scan(ref));
      }
    }
    check(!sources.empty(), "SELECT without FROM is not supported");

    // Expand SELECT * into explicit column items (keeping the sources'
    // qualified names, so self-joined instances stay distinguishable).
    {
      std::vector<SelectItem> expanded;
      for (const auto& item : s.items) {
        if (!item.star) {
          expanded.push_back(item);
          continue;
        }
        for (const auto& src : sources)
          for (const auto& col : src->output_schema.columns())
            expanded.push_back(
                SelectItem{Expr::make_column(col.name), col.name, false});
      }
      s.items = std::move(expanded);
    }

    // ---- 2. predicate conjuncts ----
    std::vector<ExprPtr> conjuncts;
    split_and(s.where, conjuncts);

    const bool has_outer_join =
        std::any_of(s.from.begin(), s.from.end(), [](const TableRef& r) {
          return r.join == JoinType::Left || r.join == JoinType::Right ||
                 r.join == JoinType::Full;
        });

    // ---- 3. push single-source conjuncts down ----
    // Pushed only into base-table scans ("selection executed by the job
    // itself", Section V-A): a predicate on a derived table stays a join
    // residual so it does not break the job-flow-correlation chain with
    // an SP node. With outer joins present WHERE semantics require
    // post-join evaluation, so nothing is pushed at all.
    if (!has_outer_join) {
      std::vector<ExprPtr> rest;
      for (auto& c : conjuncts) {
        int owner = -1;
        int owners = 0;
        for (std::size_t i = 0; i < sources.size(); ++i) {
          if (resolvable_in(c, sources[i]->output_schema)) {
            ++owners;
            owner = static_cast<int>(i);
          }
        }
        if (owners == 1 &&
            (sources[static_cast<std::size_t>(owner)]->kind == PlanKind::Scan ||
             sources.size() == 1)) {
          attach_filter(sources[static_cast<std::size_t>(owner)], c);
        } else {
          rest.push_back(c);
        }
      }
      conjuncts = std::move(rest);
    }

    // ---- 4. join sources left to right ----
    PlanPtr cur = sources[0];
    for (std::size_t i = 1; i < sources.size(); ++i) {
      std::vector<ExprPtr> here;
      here.insert(here.end(), conjuncts.begin(), conjuncts.end());
      conjuncts.clear();
      std::vector<ExprPtr> on_conjuncts;
      split_and(s.from[i].join_cond, on_conjuncts);
      here.insert(here.end(), on_conjuncts.begin(), on_conjuncts.end());

      const Schema combined =
          Schema::concat(cur->output_schema, sources[i]->output_schema);
      std::vector<ExprPtr> usable, deferred;
      for (auto& c : here) {
        if (resolvable_in(c, combined))
          usable.push_back(c);
        else
          deferred.push_back(c);
      }
      conjuncts = std::move(deferred);
      cur = make_join(cur, sources[i], usable,
                      s.from[i].join == JoinType::None ? JoinType::Inner
                                                       : s.from[i].join);
    }
    if (!conjuncts.empty()) {
      // Leftover predicates on a single (non-join) source: wrap in SP.
      if (sources.size() == 1) {
        ExprPtr all;
        for (auto& c : conjuncts) all = conjoin(all, c);
        cur = make_sp(cur, all);
      } else {
        throw PlanError("unresolvable WHERE predicate: " +
                        conjuncts[0]->to_string());
      }
    }

    // ---- 5. aggregation or plain projection ----
    const bool has_agg =
        !s.group_by.empty() || s.having != nullptr ||
        std::any_of(s.items.begin(), s.items.end(), [](const SelectItem& it) {
          return contains_aggregate(*it.expr);
        });
    if (has_agg) {
      cur = make_agg(cur, s);
    } else {
      apply_projections(cur, s);
    }

    // ---- 6. ORDER BY / LIMIT ----
    if (!s.order_by.empty() || s.limit) {
      auto sort = std::make_shared<PlanNode>();
      sort->kind = PlanKind::Sort;
      sort->children = {cur};
      for (const auto& o : s.order_by) {
        ExprPtr key = o.expr;
        // ORDER BY may name select aliases; they are already output names.
        sort->sort_keys.push_back(SortKey{key, o.desc});
      }
      sort->limit = s.limit;
      sort->output_schema = cur->output_schema;
      sort->output_lineage = cur->output_lineage;
      cur = std::move(sort);
    }
    return cur;
  }

  /// Assign JOINn / AGGn / SORTn / SPn labels in post-order, matching the
  /// paper's plan-tree figures.
  void assign_labels(const PlanPtr& root) {
    int joins = 0, aggs = 0, sorts = 0, sps = 0;
    for (PlanNode* n : post_order_operations(root)) {
      switch (n->kind) {
        case PlanKind::Join:
          n->label = (n->join_type == JoinType::Inner ? "JOIN" : "OUTER_JOIN") +
                     std::to_string(++joins);
          break;
        case PlanKind::Agg:
          n->label = "AGG" + std::to_string(++aggs);
          break;
        case PlanKind::Sort:
          n->label = "SORT" + std::to_string(++sorts);
          break;
        case PlanKind::SP:
          n->label = "SP" + std::to_string(++sps);
          break;
        case PlanKind::Scan:
          break;
      }
    }
  }

 private:
  PlanPtr make_scan(const TableRef& ref) {
    auto scan = std::make_shared<PlanNode>();
    scan->kind = PlanKind::Scan;
    scan->table = to_lower(ref.table);
    scan->alias = to_lower(ref.alias.empty() ? ref.table : ref.alias);
    const Schema& base = catalog_.schema_of(scan->table);
    scan->output_schema = base.qualified(scan->alias);
    for (const auto& c : base.columns())
      scan->output_lineage.push_back(Lineage{ColumnId{scan->table, c.name}});
    return scan;
  }

  PlanPtr make_sp(PlanPtr child, ExprPtr filter) {
    auto sp = std::make_shared<PlanNode>();
    sp->kind = PlanKind::SP;
    sp->filter = std::move(filter);
    sp->output_schema = child->output_schema;
    sp->output_lineage = child->output_lineage;
    sp->children = {std::move(child)};
    return sp;
  }

  void attach_filter(PlanPtr& node, const ExprPtr& pred) {
    if (node->kind == PlanKind::Scan) {
      node->filter = conjoin(node->filter, pred);
    } else {
      // Filter over a derived table's output: wrap in SP (post-filter).
      node = make_sp(node, pred);
    }
  }

  PlanPtr make_join(PlanPtr left, PlanPtr right, std::vector<ExprPtr> preds,
                    JoinType jt) {
    auto join = std::make_shared<PlanNode>();
    join->kind = PlanKind::Join;
    join->join_type = jt;

    // Split predicates into equi-keys (col = col across the two inputs)
    // and residual.
    ExprPtr residual;
    for (auto& p : preds) {
      bool is_key = false;
      if (p->kind == ExprKind::Binary && p->op == "=" &&
          p->args[0]->kind == ExprKind::ColumnRef &&
          p->args[1]->kind == ExprKind::ColumnRef) {
        const std::string& a = p->args[0]->column;
        const std::string& b = p->args[1]->column;
        const bool a_left = resolvable_in(p->args[0], left->output_schema);
        const bool a_right = resolvable_in(p->args[0], right->output_schema);
        const bool b_left = resolvable_in(p->args[1], left->output_schema);
        const bool b_right = resolvable_in(p->args[1], right->output_schema);
        if (a_left && !a_right && b_right && !b_left) {
          join->left_keys.push_back(a);
          join->right_keys.push_back(b);
          is_key = true;
        } else if (b_left && !b_right && a_right && !a_left) {
          join->left_keys.push_back(b);
          join->right_keys.push_back(a);
          is_key = true;
        }
      }
      if (!is_key) residual = conjoin(residual, p);
    }
    if (join->left_keys.empty())
      throw PlanError("join has no equi-join key (cross/theta joins are "
                      "not supported by the MapReduce JOIN job)");
    join->filter = std::move(residual);

    join->output_schema =
        Schema::concat(left->output_schema, right->output_schema);
    join->output_lineage = left->output_lineage;
    join->output_lineage.insert(join->output_lineage.end(),
                                right->output_lineage.begin(),
                                right->output_lineage.end());
    // Union the alias classes of each equi-key pair so both sides carry
    // the combined lineage (they are "aliases of the same key").
    for (std::size_t i = 0; i < join->left_keys.size(); ++i) {
      const auto li = left->output_schema.index_of(join->left_keys[i]);
      const auto ri = right->output_schema.index_of(join->right_keys[i]);
      Lineage merged = join->output_lineage[li];
      const Lineage& rl = join->output_lineage[left->output_schema.size() + ri];
      merged.insert(rl.begin(), rl.end());
      join->output_lineage[li] = merged;
      join->output_lineage[left->output_schema.size() + ri] = merged;
    }
    join->children = {std::move(left), std::move(right)};
    return join;
  }

  PlanPtr make_agg(PlanPtr child, const SelectStmt& s) {
    auto agg = std::make_shared<PlanNode>();
    agg->kind = PlanKind::Agg;

    // Resolve GROUP BY entries: plain child columns, or select aliases of
    // plain child columns.
    for (const auto& g : s.group_by) {
      ExprPtr e = g;
      if (e->kind == ExprKind::ColumnRef && !child->output_schema.find(e->column)) {
        // Try select-list aliases (e.g. GROUP BY ts1 for "c1.ts AS ts1").
        for (const auto& item : s.items) {
          if (to_lower(item.alias) == e->column) {
            e = item.expr;
            break;
          }
        }
      }
      if (e->kind != ExprKind::ColumnRef)
        throw PlanError("GROUP BY expression must be a column: " +
                        g->to_string());
      const auto idx = child->output_schema.index_of(e->column);
      agg->group_cols.push_back(child->output_schema.at(idx).name);
    }

    // Collect aggregate calls from the select list, rewriting each call
    // into a reference to its slot in the internal schema.
    agg->children = {child};
    for (const auto& item : s.items) {
      ExprPtr rewritten = rewrite_aggs(clone(item.expr), *agg);
      agg->projections.push_back(rewritten);

      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == ExprKind::ColumnRef
                   ? unqualify(item.expr->column)
                   : "_col" + std::to_string(agg->projections.size() - 1);
      }
      ValueType t = ValueType::Double;
      Lineage lin;
      if (item.expr->kind == ExprKind::ColumnRef) {
        const auto idx = child->output_schema.index_of(item.expr->column);
        t = child->output_schema.at(idx).type;
        lin = child->output_lineage[idx];
      } else if (item.expr->kind == ExprKind::FuncCall &&
                 item.expr->op == "count") {
        t = ValueType::Int;
      }
      agg->output_schema.add(to_lower(name), t);
      agg->output_lineage.push_back(std::move(lin));
    }
    // HAVING: post-aggregation filter over the output schema (select
    // aliases / grouping columns; raw aggregate calls are unsupported).
    if (s.having) {
      if (contains_aggregate(*s.having))
        throw PlanError(
            "HAVING must reference select aliases, not raw aggregate "
            "calls: " +
            s.having->to_string());
      agg->filter = s.having;
    }
    return agg;
  }

  /// Replace aggregate calls in `e` with ColumnRefs to "$aggN", appending
  /// the calls to agg.aggs. Returns the rewritten expression.
  ExprPtr rewrite_aggs(ExprPtr e, PlanNode& agg) {
    if (!e) return e;
    if (e->kind == ExprKind::FuncCall && is_aggregate_function(e->op)) {
      AggCall call;
      call.func = e->op;
      call.distinct = e->distinct;
      call.star = e->star;
      if (!e->star) {
        if (e->args.size() != 1)
          throw PlanError("aggregate takes exactly one argument: " +
                          e->to_string());
        call.arg = e->args[0];
        if (contains_aggregate(*call.arg))
          throw PlanError("nested aggregates are not supported");
      }
      agg.aggs.push_back(std::move(call));
      return Expr::make_column("$agg" + std::to_string(agg.aggs.size() - 1));
    }
    for (auto& a : e->args) a = rewrite_aggs(a, agg);
    return e;
  }

  void apply_projections(PlanPtr& node, const SelectStmt& s) {
    // Identity select (every item a bare column with no alias that simply
    // re-exposes the child schema) could skip projection, but explicit is
    // simpler and exact: build projection list + new schema.
    std::vector<ExprPtr> projections;
    Schema out;
    std::vector<Lineage> lineage;
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      const auto& item = s.items[i];
      projections.push_back(item.expr);
      std::string name = item.alias;
      ValueType t = ValueType::Double;
      Lineage lin;
      if (item.expr->kind == ExprKind::ColumnRef) {
        const auto idx = node->output_schema.index_of(item.expr->column);
        t = node->output_schema.at(idx).type;
        lin = node->output_lineage[idx];
        if (name.empty()) name = unqualify(item.expr->column);
      } else if (name.empty()) {
        name = "_col" + std::to_string(i);
      }
      out.add(to_lower(name), t);
      lineage.push_back(std::move(lin));
    }
    if (node->kind == PlanKind::Scan || node->kind == PlanKind::Join ||
        node->kind == PlanKind::SP) {
      node->projections = std::move(projections);
      node->output_schema = std::move(out);
      node->output_lineage = std::move(lineage);
    } else {
      // Projection over an Agg/Sort output: wrap in SP.
      auto sp = make_sp(node, nullptr);
      sp->projections = std::move(projections);
      sp->output_schema = std::move(out);
      sp->output_lineage = std::move(lineage);
      node = std::move(sp);
    }
  }

  const Catalog& catalog_;
};

/// Binds every expression of every node against its input schema with
/// the binders the jobs use (cmf/common_job.cpp): a scan's filter and
/// projections against its base table, an SP's against its child, and
/// the join, aggregation and sort binders for the rest. A column that
/// does not resolve throws PlanError here, before any job runs.
void check_bindings(const PlanNode& n, const Catalog& catalog) {
  for (const auto& c : n.children) check_bindings(*c, catalog);
  switch (n.kind) {
    case PlanKind::Scan:
    case PlanKind::SP: {
      const Schema& in = n.kind == PlanKind::Scan
                             ? catalog.schema_of(n.table)
                             : n.children[0]->output_schema;
      if (n.filter) BoundExpr(n.filter, in);
      bind_all(n.projections, in);
      break;
    }
    case PlanKind::Join: GroupJoinSpec{n}; break;
    case PlanKind::Agg: BoundAgg{n}; break;
    case PlanKind::Sort: BoundSort{n}; break;
  }
}

}  // namespace

PlanPtr build_plan(const SelectStmt& stmt, const Catalog& catalog) {
  Builder b(catalog);
  PlanPtr root = b.build(stmt);
  check_bindings(*root, catalog);
  b.assign_labels(root);
  return root;
}

PlanPtr plan_query(const std::string& sql, const Catalog& catalog) {
  return build_plan(*parse_select(sql), catalog);
}

}  // namespace ysmart
