// ColumnBatch: a column-oriented view over a slice of rows.
//
// The vectorized execution path (ROADMAP "columnar batch execution")
// slices every map split, and every operator input of at least
// kKernelMinRows rows (exec/operators.h), into batches of kBatchRows
// rows and pivots each referenced column into a typed vector —
// Int64/Double/String with a null byte-mask — so the filter/project/
// aggregate kernels in exec/vector_kernels.h can run type-specialized
// loops instead of per-row std::variant dispatch. Columns whose cells
// mix physical numeric types (an int in one row, a double in the next)
// demote to Mixed and force the row-at-a-time fallback for any
// expression that touches them, keeping the batch path lossless.
//
// The pivot is lazy and cached: column(c) materializes column c on
// first use, so an expression touching 2 of 16 columns never pays for
// the other 14. String cells and Mixed cells are borrowed by pointer
// from the source rows (the batch never outlives its input span), so
// round-tripping a Row through a batch is exact — bit patterns of
// doubles (NaN payloads, -0.0), int64s beyond 2^53 and embedded-NUL
// strings all survive (pinned by tests/test_exec_batch.cpp).
//
// The whole path sits behind the YSMART_VECTORIZED escape hatch
// (default on), mirroring YSMART_RAW_COMPARATOR: the knob may only move
// host wall-clock, never simulated metrics, results or the journal
// (pinned by tests/test_robustness.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/value.h"

namespace ysmart {

/// Current mode (process-wide, default on unless YSMART_VECTORIZED=off).
bool vectorized_enabled();
/// Runtime toggle mirroring set_raw_comparator_enabled (benches/tests).
void set_vectorized_enabled(bool on);

/// Physical type of one batch column. Null = every cell NULL (type never
/// fixed); Mixed = conflicting non-null cell types, kernels fall back.
enum class ColType { Null, Int64, Double, String, Mixed };

class ColumnVector {
 public:
  ColType type() const { return type_; }
  std::size_t size() const { return size_; }

  bool has_nulls() const { return !nulls_.empty(); }
  bool is_null(std::size_t i) const { return !nulls_.empty() && nulls_[i]; }
  /// Null byte-mask (1 = NULL), or nullptr when no cell is NULL.
  const unsigned char* null_data() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

  /// Typed storage; valid only for the matching type(). NULL slots hold
  /// placeholders (0 / 0.0 / a pointer to an empty string).
  const std::int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return dbls_.data(); }
  const std::string* const* str_data() const { return strs_.data(); }
  const std::string& str_at(std::size_t i) const { return *strs_[i]; }
  const Value& mixed_at(std::size_t i) const { return *mixed_[i]; }

  /// Lossless reconstruction of the original cell.
  Value value_at(std::size_t i) const;

 private:
  friend class ColumnBatch;
  ColType type_ = ColType::Null;
  std::size_t size_ = 0;
  std::vector<unsigned char> nulls_;  // non-empty iff any cell is NULL
  std::vector<std::int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<const std::string*> strs_;  // borrowed from the source rows
  std::vector<const Value*> mixed_;       // borrowed from the source rows
};

class ColumnBatch {
 public:
  /// Rows per batch on the engine's map path and in the chunked
  /// operators. Large enough to amortize per-batch dispatch, small
  /// enough that a handful of materialized columns stay cache-resident.
  static constexpr std::size_t kBatchRows = 1024;

  /// View over `rows` (not owned; must outlive the batch). The engine's
  /// map path slices its contiguous input split this way.
  explicit ColumnBatch(std::span<const Row> rows);
  /// View over the rows `rows[0], rows[1], ...` point to (neither the
  /// pointers nor the rows are owned; both must outlive the batch). The
  /// operators batch a row view (exec/operators.h) this way.
  explicit ColumnBatch(std::span<const Row* const> rows);

  std::size_t rows() const {
    return has_sel_ ? sel_.size() : by_ptr_ ? ptrs_.size() : rows_.size();
  }
  std::size_t columns() const { return num_cols_; }
  /// False when the rows disagree on arity; kernels then fall back.
  bool regular() const { return regular_; }

  /// The underlying source row for batch position `i`.
  const Row& source_row(std::size_t i) const {
    const std::size_t j = has_sel_ ? sel_[i] : i;
    return by_ptr_ ? *ptrs_[j] : rows_[j];
  }

  /// Column `c`, pivoted on first use and cached. Requires regular().
  const ColumnVector& column(std::size_t c);

  /// A sub-batch over positions `local[0], local[1], ...` of this batch
  /// (selections compose). Shares the source rows, not the columns.
  ColumnBatch select(const std::vector<std::uint32_t>& local) const;

  /// Reconstruct row `i` from the pivoted columns alone — no reads from
  /// the source rows. Exists for the round-trip property tests.
  Row materialize_row(std::size_t i);

 private:
  ColumnBatch() = default;
  /// Sets num_cols_, regular_ and the column slots from the source rows.
  void init_shape();
  void pivot_one(std::size_t c);

  // Exactly one of rows_ / ptrs_ is the source, by by_ptr_.
  std::span<const Row> rows_;
  std::span<const Row* const> ptrs_;
  bool by_ptr_ = false;
  std::vector<std::uint32_t> sel_;
  bool has_sel_ = false;
  std::size_t num_cols_ = 0;
  bool regular_ = true;
  std::vector<std::unique_ptr<ColumnVector>> cols_;
};

}  // namespace ysmart
