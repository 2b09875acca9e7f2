// ColumnBatch: a column-oriented view over a slice of rows.
//
// The vectorized execution path (ROADMAP "columnar batch execution")
// runs the filter/project/aggregate kernels in exec/vector_kernels.h
// over batches of kBatchRows rows whose columns are typed vectors —
// Int64/Double/String with a null byte-mask — so they loop per type
// instead of dispatching on std::variant per row. Columns whose cells
// mix physical types (an int in one row, a double in the next) are
// Mixed and force the row-at-a-time fallback for any expression that
// touches them, keeping the batch path lossless.
//
// A batch has one of three sources. A row range of a columnar Table
// (storage/table.h) is how the engine feeds a map split and refdb scans
// a table: Int64 and Double columns and the null masks point into the
// table, String and Mixed columns get a pointer array per batch, and no
// Row is read. A span of Rows or of Row pointers is how the operators
// batch a reduce group or an intermediate (exec/operators.h): there the
// columns are pivoted from the rows, lazily and cached — column(c)
// materializes column c on first use, so an expression touching 2 of 16
// columns never pays for the other 14 — with the table's typing rule
// (the first non-null cell fixes the type, a conflicting cell makes the
// column Mixed). String and Mixed cells are borrowed by pointer from
// the table or the source rows (the batch never outlives its source), so
// round-tripping a cell through a batch is exact — bit patterns of
// doubles (NaN payloads, -0.0), int64s beyond 2^53 and embedded-NUL
// strings all survive (pinned by tests/test_exec_batch.cpp and
// tests/test_table.cpp). source_row(i) serves the row fallbacks; on a
// table view it builds the batch's Rows on its first call.
//
// The whole path sits behind the YSMART_VECTORIZED escape hatch
// (default on): the knob may only move host wall-clock, never simulated
// metrics, results or the journal (pinned by tests/test_robustness.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

namespace ysmart {

/// Current mode (process-wide, default on unless YSMART_VECTORIZED=off).
bool vectorized_enabled();
/// Runtime toggle (benches/tests).
void set_vectorized_enabled(bool on);

/// One column of a batch (ColType as in storage/table.h).
class ColumnVector {
 public:
  ColType type() const { return type_; }
  std::size_t size() const { return size_; }

  bool has_nulls() const { return nulls_ != nullptr; }
  bool is_null(std::size_t i) const { return nulls_ && nulls_[i]; }
  /// Null byte-mask (1 = NULL), or nullptr when no cell is NULL.
  const unsigned char* null_data() const { return nulls_; }

  /// Typed storage; valid only for the matching type(). NULL slots hold
  /// placeholders (0 / 0.0 / a pointer to an empty string).
  const std::int64_t* int_data() const { return ints_; }
  const double* double_data() const { return dbls_; }
  const std::string* const* str_data() const { return strs_; }
  const std::string& str_at(std::size_t i) const { return *strs_[i]; }
  const Value& mixed_at(std::size_t i) const { return *mixed_[i]; }

  /// Lossless reconstruction of the original cell.
  Value value_at(std::size_t i) const;

 private:
  friend class ColumnBatch;

  ColType type_ = ColType::Null;
  std::size_t size_ = 0;
  // Views into a table's column or into the owned storage.
  const unsigned char* nulls_ = nullptr;  // non-null iff any cell is NULL
  const std::int64_t* ints_ = nullptr;
  const double* dbls_ = nullptr;
  const std::string* const* strs_ = nullptr;
  const Value* const* mixed_ = nullptr;
  // Cells pivoted from rows or gathered by a selection, and the pointer
  // arrays of String and Mixed columns (they borrow the cells).
  std::vector<unsigned char> own_nulls_;
  std::vector<std::int64_t> own_ints_;
  std::vector<double> own_dbls_;
  std::vector<const std::string*> own_strs_;
  std::vector<const Value*> own_mixed_;
};

class ColumnBatch {
 public:
  /// Rows per batch on the engine's map path and in the chunked
  /// operators. Large enough to amortize per-batch dispatch, small
  /// enough that a handful of materialized columns stay cache-resident.
  static constexpr std::size_t kBatchRows = 1024;

  /// View over rows [first, first + count) of `table` (not owned; must
  /// outlive the batch). The engine's map path and refdb's scan read a
  /// table this way.
  ColumnBatch(const Table& table, std::size_t first, std::size_t count);
  /// View over `rows` (not owned; must outlive the batch).
  explicit ColumnBatch(std::span<const Row> rows);
  /// View over the rows `rows[0], rows[1], ...` point to (neither the
  /// pointers nor the rows are owned; both must outlive the batch). The
  /// operators batch a row view (exec/operators.h) this way.
  explicit ColumnBatch(std::span<const Row* const> rows);

  std::size_t rows() const { return has_sel_ ? sel_.size() : count_; }
  std::size_t columns() const { return num_cols_; }
  /// False when the rows disagree on arity; kernels then fall back.
  bool regular() const { return regular_; }

  /// The source row for batch position `i`. A table view builds all its
  /// rows on the first call; only row fallbacks should need this.
  const Row& source_row(std::size_t i) const {
    const std::size_t j = has_sel_ ? sel_[i] : i;
    switch (source_) {
      case Source::Rows: return rows_[j];
      case Source::RowPtrs: return *ptrs_[j];
      case Source::Table: break;
    }
    if (built_.empty()) build_rows();
    return built_[i];
  }

  /// A copy of the row at batch position `i`: built from the table's
  /// cells for a table view (no other row is built), copied from the
  /// source row otherwise.
  Row copy_row(std::size_t i) const;

  /// Column `c`, viewed or pivoted on first use and cached. Requires
  /// regular().
  const ColumnVector& column(std::size_t c);

  /// A sub-batch over positions `local[0], local[1], ...` of this batch
  /// (selections compose). Shares the source, not the columns; a
  /// selection of a table view gathers its cells from the table.
  ColumnBatch select(const std::vector<std::uint32_t>& local) const;

  /// Reconstruct row `i` from the batch's columns alone — no reads from
  /// the source rows. Exists for the round-trip property tests.
  Row materialize_row(std::size_t i);

 private:
  enum class Source { Rows, RowPtrs, Table };

  ColumnBatch() = default;
  /// Sets num_cols_, regular_ and the column slots from the source rows.
  void init_shape();
  void pivot_one(std::size_t c, ColumnVector& col) const;
  void view_table_column(std::size_t c, ColumnVector& col) const;
  void build_rows() const;

  Source source_ = Source::Rows;
  // The source, by source_; count_ is its length.
  std::span<const Row> rows_;
  std::span<const Row* const> ptrs_;
  const Table* table_ = nullptr;
  std::size_t first_ = 0;  // table views: the batch's first table row
  std::size_t count_ = 0;
  std::vector<std::uint32_t> sel_;  // positions in the source
  bool has_sel_ = false;
  std::size_t num_cols_ = 0;
  bool regular_ = true;
  std::vector<std::unique_ptr<ColumnVector>> cols_;
  mutable std::vector<Row> built_;  // table views: rows for source_row
};

}  // namespace ysmart
