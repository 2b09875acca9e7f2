#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <unordered_map>

#include "common/error.h"
#include "common/prof_counters.h"
#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/vector_kernels.h"

namespace ysmart {

std::vector<const Row*> view_of(const std::vector<Row>& rows) {
  std::vector<const Row*> view;
  view.reserve(rows.size());
  for (const Row& r : rows) view.push_back(&r);
  return view;
}

namespace {

bool use_kernels(std::size_t rows) {
  return vectorized_enabled() && rows >= kKernelMinRows;
}

/// Batched filter+project over `n` input rows, read as
/// ColumnBatch::kBatchRows chunks through `batch_at(first, count)`: run
/// the filter kernel into a selection vector, then evaluate projections
/// only over the selected sub-batch. Any non-vectorizable expression
/// falls back to per-row eval for exactly the rows the batch kernel would
/// have covered, so output and counters match the row path cell-for-cell.
template <class BatchAt>
void filter_project_batched(std::size_t n, const BatchAt& batch_at,
                            const BoundExpr* filter,
                            const std::vector<BoundExpr>& projections,
                            std::vector<Row>& out) {
  const bool have_filter = filter && filter->valid();
  std::vector<std::uint32_t> sel;
  std::vector<BatchVector> cols(projections.size());
  std::vector<char> ok(projections.size());
  for (std::size_t base = 0; base < n; base += ColumnBatch::kBatchRows) {
    const std::size_t count = std::min(ColumnBatch::kBatchRows, n - base);
    ColumnBatch batch = batch_at(base, count);
    sel.clear();
    if (have_filter) {
      BatchVector fv;
      if (eval_expr_batch(*filter, batch, fv)) {
        collect_passing(fv, count, sel);
      } else {
        for (std::size_t k = 0; k < count; ++k)
          if (is_true(filter->eval(batch.source_row(k))))
            sel.push_back(static_cast<std::uint32_t>(k));
      }
    } else {
      for (std::size_t k = 0; k < count; ++k)
        sel.push_back(static_cast<std::uint32_t>(k));
    }
    if (sel.empty()) continue;
    if (projections.empty()) {
      for (auto k : sel) out.push_back(batch.copy_row(k));
      continue;
    }
    ColumnBatch selected = batch.select(sel);
    for (std::size_t j = 0; j < projections.size(); ++j)
      ok[j] = eval_expr_batch(projections[j], selected, cols[j]);
    for (std::size_t k = 0; k < selected.rows(); ++k) {
      Row p;
      p.reserve(projections.size());
      for (std::size_t j = 0; j < projections.size(); ++j)
        p.push_back(ok[j] ? cols[j].value_at(k)
                          : projections[j].eval(selected.source_row(k)));
      out.push_back(std::move(p));
    }
  }
}

/// The row loop's body for one input row.
void filter_project_row(const Row& r, const BoundExpr* filter,
                        const std::vector<BoundExpr>& projections,
                        std::vector<Row>& out) {
  if (filter && filter->valid() && !is_true(filter->eval(r))) return;
  if (projections.empty()) {
    out.push_back(r);
    return;
  }
  Row p;
  p.reserve(projections.size());
  for (const auto& e : projections) p.push_back(e.eval(r));
  out.push_back(std::move(p));
}

}  // namespace

void filter_project(RowView in, const BoundExpr* filter,
                    const std::vector<BoundExpr>& projections,
                    std::vector<Row>& out) {
  prof::count(prof::kOperatorRows, in.size());
  if (!use_kernels(in.size())) {
    for (const Row* r : in) filter_project_row(*r, filter, projections, out);
    return;
  }
  filter_project_batched(
      in.size(),
      [&](std::size_t first, std::size_t count) {
        return ColumnBatch(in.subspan(first, count));
      },
      filter, projections, out);
}

void filter_project(const Table& in, const BoundExpr* filter,
                    const std::vector<BoundExpr>& projections,
                    std::vector<Row>& out) {
  const std::size_t n = in.row_count();
  prof::count(prof::kOperatorRows, n);
  if (!use_kernels(n)) {
    for (std::size_t i = 0; i < n; ++i)
      filter_project_row(in.row(i), filter, projections, out);
    return;
  }
  filter_project_batched(
      n,
      [&](std::size_t first, std::size_t count) {
        return ColumnBatch(in, first, count);
      },
      filter, projections, out);
}

GroupJoinSpec::GroupJoinSpec(const PlanNode& join) : type(join.join_type) {
  check(join.kind == PlanKind::Join, "GroupJoinSpec on non-Join node");
  const Schema& ls = join.children[0]->output_schema;
  const Schema& rs = join.children[1]->output_schema;
  const Schema combined = Schema::concat(ls, rs);
  if (join.filter) residual = BoundExpr(join.filter, combined);
  projections = bind_all(join.projections, combined);
  left_width = ls.size();
  right_width = rs.size();
  for (std::size_t i = 0; i < join.left_keys.size(); ++i) {
    left_key_idx.push_back(ls.index_of(join.left_keys[i]));
    right_key_idx.push_back(rs.index_of(join.right_keys[i]));
  }
}

namespace {

/// joined := l ‖ r, where a null side is `width` NULLs. Assigns into the
/// existing cells so string cells reuse their storage across calls.
void concat_into(Row& joined, const Row* l, std::size_t lw, const Row* r,
                 std::size_t rw) {
  const std::size_t ln = l ? l->size() : lw;
  const std::size_t rn = r ? r->size() : rw;
  joined.resize(ln + rn);
  const auto mid = joined.begin() + static_cast<std::ptrdiff_t>(ln);
  if (l)
    std::copy(l->begin(), l->end(), joined.begin());
  else
    std::fill(joined.begin(), mid, Value::null());
  if (r)
    std::copy(r->begin(), r->end(), mid);
  else
    std::fill(mid, joined.end(), Value::null());
}

void emit_joined(const GroupJoinSpec& spec, const Row& joined,
                 std::vector<Row>& out) {
  if (spec.residual.valid() && !is_true(spec.residual.eval(joined))) return;
  if (spec.projections.empty()) {
    out.push_back(joined);
    return;
  }
  Row p;
  p.reserve(spec.projections.size());
  for (const auto& e : spec.projections) p.push_back(e.eval(joined));
  out.push_back(std::move(p));
}

bool keys_equal(const GroupJoinSpec& spec, const Row& l, const Row& r) {
  for (std::size_t i = 0; i < spec.left_key_idx.size(); ++i) {
    const Value& a = l.at(spec.left_key_idx[i]);
    const Value& b = r.at(spec.right_key_idx[i]);
    // SQL equi-join: NULL keys never match.
    if (a.is_null() || b.is_null()) return false;
    if (a.compare(b) != 0) return false;
  }
  return true;
}

bool pads_left_rows(JoinType t) {
  return t == JoinType::Left || t == JoinType::Full;
}

bool pads_right_rows(JoinType t) {
  return t == JoinType::Right || t == JoinType::Full;
}

}  // namespace

void join_group(const GroupJoinSpec& spec, RowView left, RowView right,
                std::vector<Row>& out, Row& joined) {
  prof::count(prof::kOperatorRows, left.size() + right.size());
  const bool pad_right = pads_right_rows(spec.type);
  std::vector<char> right_matched(pad_right ? right.size() : 0, 0);
  for (const Row* l : left) {
    bool matched = false;
    for (std::size_t j = 0; j < right.size(); ++j) {
      if (!keys_equal(spec, *l, *right[j])) continue;
      matched = true;
      if (pad_right) right_matched[j] = 1;
      concat_into(joined, l, spec.left_width, right[j], spec.right_width);
      emit_joined(spec, joined, out);
    }
    if (!matched && pads_left_rows(spec.type)) {
      concat_into(joined, l, spec.left_width, nullptr, spec.right_width);
      emit_joined(spec, joined, out);
    }
  }
  if (pad_right) {
    for (std::size_t j = 0; j < right.size(); ++j) {
      if (right_matched[j]) continue;
      concat_into(joined, nullptr, spec.left_width, right[j], spec.right_width);
      emit_joined(spec, joined, out);
    }
  }
}

void hash_join(const GroupJoinSpec& spec, RowView left, RowView right,
               std::vector<Row>& out) {
  // Bucket both sides by key, then run the group joiner per bucket. NULL
  // keys never join but must still surface through outer padding, so they
  // go into per-side "unmatched" pools.
  using Side = std::vector<const Row*>;
  std::map<Row, std::pair<Side, Side>, RowLess> buckets;
  Side left_null, right_null;
  auto key_of = [](const Row& r, const std::vector<std::size_t>& idx,
                   bool& has_null) {
    Row k;
    k.reserve(idx.size());
    for (auto i : idx) {
      if (r.at(i).is_null()) has_null = true;
      k.push_back(r.at(i));
    }
    return k;
  };
  for (const Row* r : left) {
    bool has_null = false;
    Row k = key_of(*r, spec.left_key_idx, has_null);
    if (has_null)
      left_null.push_back(r);
    else
      buckets[std::move(k)].first.push_back(r);
  }
  for (const Row* r : right) {
    bool has_null = false;
    Row k = key_of(*r, spec.right_key_idx, has_null);
    if (has_null)
      right_null.push_back(r);
    else
      buckets[std::move(k)].second.push_back(r);
  }

  Row joined;
  for (const auto& [k, lr] : buckets)
    join_group(spec, lr.first, lr.second, out, joined);
  // Null-keyed rows join nothing; pad them for outer joins.
  if (pads_left_rows(spec.type))
    for (const Row* l : left_null) {
      concat_into(joined, l, spec.left_width, nullptr, spec.right_width);
      emit_joined(spec, joined, out);
    }
  if (pads_right_rows(spec.type))
    for (const Row* r : right_null) {
      concat_into(joined, nullptr, spec.left_width, r, spec.right_width);
      emit_joined(spec, joined, out);
    }
}

BoundAgg::BoundAgg(const PlanNode& agg) : aggs(agg.aggs) {
  check(agg.kind == PlanKind::Agg, "BoundAgg on non-Agg node");
  const Schema& child = agg.children[0]->output_schema;
  for (const auto& g : agg.group_cols) group_idx.push_back(child.index_of(g));
  for (const auto& a : aggs) {
    if (a.star)
      args.emplace_back();
    else
      args.emplace_back(a.arg, child);
  }
  projections = bind_all(agg.projections, agg.agg_internal_schema());
  if (agg.filter) having = BoundExpr(agg.filter, agg.output_schema);
}

namespace {

/// True when every row's group key compares equal to the first row's.
/// Exactly then the row loop's ordered map would hold one group, keyed
/// by the first row.
bool one_group(RowView in, const std::vector<std::size_t>& group_idx) {
  for (const Row* r : in.subspan(1))
    for (auto i : group_idx)
      if (r->at(i).compare(in[0]->at(i)) != 0) return false;
  return true;
}

}  // namespace

void aggregate_rows(const BoundAgg& agg, RowView in, std::vector<Row>& out) {
  prof::count(prof::kOperatorRows, in.size());
  const auto& group_idx = agg.group_idx;
  auto fresh_states = [&] {
    std::vector<AggState> st;
    st.reserve(agg.aggs.size());
    for (const auto& a : agg.aggs) st.emplace_back(a);
    return st;
  };
  auto add_row = [&](std::vector<AggState>& states, const Row& r) {
    for (std::size_t i = 0; i < agg.aggs.size(); ++i) {
      if (agg.aggs[i].star)
        states[i].add(Value{std::int64_t{1}});
      else
        states[i].add(agg.args[i].eval(r));
    }
  };
  // internal := group key cells ‖ aggregate results, then project and
  // apply HAVING.
  Row internal;
  internal.reserve(group_idx.size() + agg.aggs.size());
  auto emit_group = [&](const std::vector<AggState>& states) {
    for (const auto& s : states) internal.push_back(s.result());
    Row o;
    o.reserve(agg.projections.size());
    for (const auto& p : agg.projections) o.push_back(p.eval(internal));
    if (agg.having.valid() && !is_true(agg.having.eval(o))) return;
    out.push_back(std::move(o));
  };

  // A reduce key group whose partition key is the group key is one group:
  // aggregate it without building the map.
  if (!use_kernels(in.size()) && !in.empty() && one_group(in, group_idx)) {
    std::vector<AggState> states = fresh_states();
    for (const Row* r : in) add_row(states, *r);
    for (auto i : group_idx) internal.push_back(in[0]->at(i));
    emit_group(states);
    return;
  }

  std::map<Row, std::vector<AggState>, RowLess> groups;
  // The batched branch accumulates groups in a hash map — the ordered
  // map's per-row O(log g) full-row comparisons dominate the loop once
  // argument eval is batched — and moves the entries into the ordered map
  // afterwards, so downstream iteration order (and output) is unchanged.
  // RowHash is consistent with compare_rows except for NaN key cells (a
  // NaN compares "equal" to any numeric but hashes like itself), so an
  // input with a NaN in a group key takes the row path wholesale; the
  // pre-scan touches no expression or counter.
  bool use_vec = use_kernels(in.size());
  // A single all-int64 group column upgrades further to a plain
  // int-keyed hash map: no per-row key Row is built at all, and int
  // equality coincides exactly with RowEq on all-int keys.
  bool int_keys = use_vec && group_idx.size() == 1;
  if (use_vec && !group_idx.empty()) {
    for (const Row* r : in) {
      for (auto i : group_idx) {
        const Value& v = r->at(i);
        const ValueType vt = v.type();
        if (vt != ValueType::Int) int_keys = false;
        if (vt == ValueType::Double && std::isnan(v.as_double())) {
          use_vec = false;
          break;
        }
      }
      if (!use_vec) break;
    }
  }
  Row key_scratch;
  if (use_vec) {
    // Batched: aggregate arguments are evaluated once per chunk by the
    // kernels; group keys are raw cells, so the per-row loop only builds
    // keys and feeds the typed adds. Non-vectorizable arguments fall back
    // to per-row eval for this chunk.
    std::unordered_map<Row, std::vector<AggState>, RowHash, RowEq> hgroups;
    std::unordered_map<std::int64_t, std::vector<AggState>> igroups;
    std::vector<BatchVector> argv(agg.aggs.size());
    std::vector<char> vec_ok(agg.aggs.size());
    for (std::size_t base = 0; base < in.size();
         base += ColumnBatch::kBatchRows) {
      const std::size_t n = std::min(ColumnBatch::kBatchRows, in.size() - base);
      const RowView chunk = in.subspan(base, n);
      ColumnBatch batch(chunk);
      for (std::size_t i = 0; i < agg.aggs.size(); ++i)
        vec_ok[i] =
            !agg.aggs[i].star && eval_expr_batch(agg.args[i], batch, argv[i]);
      const std::int64_t* key_data =
          int_keys ? batch.column(group_idx[0]).int_data() : nullptr;
      for (std::size_t k = 0; k < n; ++k) {
        const Row& r = *chunk[k];
        std::vector<AggState>* states;
        if (int_keys) {
          auto [it, inserted] = igroups.try_emplace(key_data[k]);
          if (inserted) it->second = fresh_states();
          states = &it->second;
        } else {
          key_scratch.clear();
          for (auto i : group_idx) key_scratch.push_back(r.at(i));
          auto it = hgroups.find(key_scratch);
          if (it == hgroups.end())
            it = hgroups.emplace(key_scratch, fresh_states()).first;
          states = &it->second;
        }
        for (std::size_t i = 0; i < agg.aggs.size(); ++i) {
          if (agg.aggs[i].star)
            (*states)[i].add_int(1);
          else if (vec_ok[i])
            add_to_agg((*states)[i], argv[i], k);
          else
            (*states)[i].add(agg.args[i].eval(r));
        }
      }
    }
    for (auto& [k, st] : igroups) groups.emplace(Row{Value{k}}, std::move(st));
    while (!hgroups.empty()) {
      auto nh = hgroups.extract(hgroups.begin());
      groups.emplace(std::move(nh.key()), std::move(nh.mapped()));
    }
  } else {
    for (const Row* r : in) {
      key_scratch.clear();
      for (auto i : group_idx) key_scratch.push_back(r->at(i));
      auto it = groups.find(key_scratch);
      if (it == groups.end())
        it = groups.emplace(key_scratch, fresh_states()).first;
      add_row(it->second, *r);
    }
  }
  // Global aggregation over empty input still yields one group.
  if (groups.empty() && group_idx.empty()) groups.emplace(Row{}, fresh_states());

  for (const auto& [key, states] : groups) {
    internal.assign(key.begin(), key.end());
    emit_group(states);
  }
}

BoundSort::BoundSort(const PlanNode& sort) : limit(sort.limit) {
  check(sort.kind == PlanKind::Sort, "BoundSort on non-Sort node");
  const Schema& child = sort.children[0]->output_schema;
  for (const auto& k : sort.sort_keys) {
    keys.emplace_back(k.expr, child);
    desc.push_back(k.desc);
  }
}

void sort_rows(const BoundSort& sort, RowView in, std::vector<Row>& out) {
  prof::count(prof::kOperatorRows, in.size());
  std::vector<std::size_t> order(in.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t nk = sort.keys.size();
  if (nk > 0) {
    // Row i's keys sit at keys[i * nk, (i + 1) * nk).
    std::vector<Value> keys;
    keys.reserve(in.size() * nk);
    for (const Row* r : in)
      for (const auto& k : sort.keys) keys.push_back(k.eval(*r));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       for (std::size_t i = 0; i < nk; ++i) {
                         const auto c = keys[a * nk + i].compare(keys[b * nk + i]);
                         if (c != 0) return sort.desc[i] ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  std::size_t n = in.size();
  if (sort.limit)
    n = std::min(n, static_cast<std::size_t>(std::max<std::int64_t>(*sort.limit, 0)));
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(*in[order[i]]);
}

}  // namespace ysmart
