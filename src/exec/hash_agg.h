// Grouped hash aggregation over normalized keys: the map-side combiner
// of CombineAgg jobs (Hive's map-side aggregation, the paper's footnote
// 2), a ColumnBatch at a time.
//
// GroupTable resolves normalized-key bytes (common/normkey.h) to dense
// group ids in one open-addressing table; the keys live back to back in
// a single arena, so inserting a group costs no per-key allocation.
//
// HashAggregator owns one GroupTable plus, per group, the key Row (built
// once, from the group's first row) and one AggState per aggregate call.
// add_batch runs the group and argument expressions as kernels
// (exec/vector_kernels.h), encodes the group keys straight from the typed
// result vectors through the typed encoders, resolves the whole batch to
// group ids, then feeds each aggregate with one loop over (group id,
// argument) pairs, its representation dispatched once per batch. Each
// state sees its inputs in row order, so min/max keep-first ties and
// double sums are exactly those of add_row over the same rows. Both
// paths count identically: kRowsEvaluated per expression and row,
// kCellsEncoded per key cell, kAggUpdates per (row, aggregate). A group
// expression the kernels cannot evaluate falls back to per-row eval for
// that expression only.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/expr_eval.h"
#include "exec/vector_kernels.h"

namespace ysmart {

class GroupTable {
 public:
  /// The id of the group whose key bytes are `key`. A key not seen
  /// before becomes group size() (ids count up in first-insert order).
  std::uint32_t find_or_insert(std::string_view key);

  std::size_t size() const { return ends_.size(); }
  std::string_view key(std::uint32_t id) const {
    const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
  }
  /// Every id, ordered by key bytes (norm_key_compare order).
  std::vector<std::uint32_t> ids_in_key_order() const;

 private:
  void grow();

  std::string arena_;                  // keys back to back, in id order
  std::vector<std::size_t> ends_;      // end offset of key `id` in arena_
  std::vector<std::uint64_t> hashes_;  // hash of key `id`
  std::vector<std::uint32_t> slots_;   // id + 1, 0 = empty; power of two
};

class HashAggregator {
 public:
  /// The expressions (an unbound arg for star aggregates) must outlive
  /// the aggregator.
  HashAggregator(const std::vector<BoundExpr>& group_exprs,
                 const std::vector<BoundExpr>& arg_exprs,
                 const std::vector<AggCall>& aggs);

  /// Aggregate one row.
  void add_row(const Row& row);
  /// Aggregate every row of `batch`: the groups, states and counters of
  /// add_row over batch.source_row(0), source_row(1), ...
  void add_batch(ColumnBatch& batch);

  std::size_t groups() const { return table_.size(); }

  /// Calls fn(norm_key, key, states) once per group, in normalized-key
  /// byte order; `key` may be moved from.
  template <class Fn>
  void for_each_in_key_order(Fn&& fn) {
    for (const std::uint32_t id : table_.ids_in_key_order())
      fn(table_.key(id), keys_[id],
         std::span<const AggState>(states_.data() + id * aggs_.size(),
                                   aggs_.size()));
  }

 private:
  /// Group id of `key`, adding a group keyed by `key_row()` if new.
  template <class KeyRow>
  std::uint32_t group_of(std::string_view key, KeyRow&& key_row);
  /// Fills gids_[0, n) for the rows of `batch`.
  void resolve_groups(ColumnBatch& batch);

  const std::vector<BoundExpr>& group_exprs_;
  const std::vector<BoundExpr>& arg_exprs_;
  const std::vector<AggCall>& aggs_;
  GroupTable table_;
  std::vector<Row> keys_;          // by group id
  std::vector<AggState> states_;   // group id * aggs + aggregate index

  // Scratch reused across rows and batches.
  Row key_row_;                                   // row path
  std::string key_bytes_;                         // keys, back to back
  std::vector<std::uint32_t> key_ends_;           // end of each row's key
  std::vector<BatchVector> group_vals_;           // by group expression
  std::vector<char> group_ok_;                    // kernel ran
  std::vector<const unsigned char*> group_nulls_; // null masks
  std::vector<std::vector<Value>> fallback_;      // per-row eval
  std::vector<std::uint32_t> gids_;               // group id per batch row
  BatchVector arg_;
};

}  // namespace ysmart
