// Row-view implementations of the plan operations.
//
// These functions are the single source of operator semantics in the
// repository: the reference executor (refdb) runs them over whole tables,
// and the CMF common reducer runs them over per-key row groups, so both
// paths compute identical results by construction.
//
// Every operator takes its input as a RowView — pointers to rows the
// caller keeps alive — and appends its output to a vector the caller
// owns, so a caller can run an operator over any subset of rows it holds
// (a reduce key group's visible values, an earlier stage's output)
// without copying them. Plan nodes are bound once into the Bound* forms
// below; running an operator does no name lookups.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "exec/expr_eval.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace ysmart {

/// Read-only view over rows owned elsewhere; the rows must outlive every
/// operator call the view is passed to.
using RowView = std::span<const Row* const>;

/// Pointers to every row of `rows`, in order: the view an owner of a
/// whole row vector (refdb, tests) passes to the operators.
std::vector<const Row*> view_of(const std::vector<Row>& rows);

/// Inputs of at least this many rows run the batch kernels
/// (exec/vector_kernels.h) when YSMART_VECTORIZED is on; smaller inputs —
/// most reduce key groups — run the row loop, where building a column
/// batch costs more than the kernels save. Both give identical rows and
/// reconciled counters, so the choice only moves host time.
inline constexpr std::size_t kKernelMinRows = 64;

/// Scan/SP body: filter (may be null or invalid = pass-all) then project
/// (empty projections = identity).
void filter_project(RowView in, const BoundExpr* filter,
                    const std::vector<BoundExpr>& projections,
                    std::vector<Row>& out);
/// The same over every row of a table (refdb's scan): the rows are read
/// through ColumnBatch views (exec/batch.h), so only output rows are
/// built. Same rows and counters as over a view of table.rows().
void filter_project(const Table& in, const BoundExpr* filter,
                    const std::vector<BoundExpr>& projections,
                    std::vector<Row>& out);

/// A Join node bound against its children's output schemas.
/// `left_width`/`right_width` are the child output arities used for
/// outer-join padding.
struct GroupJoinSpec {
  GroupJoinSpec() = default;
  explicit GroupJoinSpec(const PlanNode& join);

  JoinType type = JoinType::Inner;
  BoundExpr residual;                   // over concat(left, right); may be invalid
  std::vector<BoundExpr> projections;   // over concat(left, right); empty = identity
  std::size_t left_width = 0;
  std::size_t right_width = 0;
  /// Equi-key indices into the left/right child rows; used to re-check
  /// key equality (guards against hash-grouped callers) and may be empty
  /// when the caller guarantees single-key groups.
  std::vector<std::size_t> left_key_idx;
  std::vector<std::size_t> right_key_idx;
};

/// Join two row sets that are already co-partitioned on the equi-key
/// (i.e. one reduce key group): cross-match within the group, then apply
/// the residual predicate (WHERE semantics: after null-padding for outer
/// joins), then project. `joined` is caller-owned scratch for the
/// concatenated row, reused across calls so its cells keep their storage.
void join_group(const GroupJoinSpec& spec, RowView left, RowView right,
                std::vector<Row>& out, Row& joined);

/// Full hash equi-join of two tables (used by refdb).
void hash_join(const GroupJoinSpec& spec, RowView left, RowView right,
               std::vector<Row>& out);

/// An Agg node bound against its child's output schema.
struct BoundAgg {
  explicit BoundAgg(const PlanNode& agg);

  std::vector<AggCall> aggs;
  std::vector<std::size_t> group_idx;  // into the child's output rows
  std::vector<BoundExpr> args;         // per aggregate; invalid for count(*)
  std::vector<BoundExpr> projections;  // over group columns ‖ aggregate results
  BoundExpr having;                    // over the output schema; may be invalid
};

/// Grouping aggregation over arbitrary rows (not pre-partitioned):
/// groups by the group columns, computes aggregates, applies the post
/// projections and HAVING. Output is sorted by group key for determinism.
void aggregate_rows(const BoundAgg& agg, RowView in, std::vector<Row>& out);

/// A Sort node bound against its child's output schema.
struct BoundSort {
  explicit BoundSort(const PlanNode& sort);

  std::vector<BoundExpr> keys;
  std::vector<bool> desc;
  std::optional<std::int64_t> limit;
};

/// ORDER BY (+ LIMIT), stable on ties. Each row's keys are evaluated once.
void sort_rows(const BoundSort& sort, RowView in, std::vector<Row>& out);

}  // namespace ysmart
