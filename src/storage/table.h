// Table: an in-memory relation (schema + typed columns) with byte
// accounting.
//
// Tables are the unit stored in the simulated DFS and produced by query
// execution. Cell data is genuinely materialized so every MapReduce job in
// the simulator processes real records.
//
// Storage is columnar: one TableColumn per schema column, each spanning the
// whole table, so a DFS block (storage/dfs.h) is a row range of every
// column and a map split is a ColumnBatch view over that range
// (exec/batch.h) with no per-record heap block and no pivot. A column
// holds int64, double or string cells, or Values once its cells disagree
// on type (Mixed); cells keep their exact bits (NaN payloads, -0.0,
// int64s beyond 2^53, strings with NUL bytes). Rows are built from the
// columns only where an operator or a row fallback needs them: row(i)
// builds one, rows() builds them all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace ysmart {

/// Physical type of a column. Null = every cell so far is NULL (type not
/// fixed yet); Mixed = conflicting non-null cell types, kept as Values.
enum class ColType { Null, Int64, Double, String, Mixed };

/// One column of a Table. The first non-null cell fixes the type; a
/// non-null cell of another type demotes the column to Mixed, whose cells
/// are Values. NULL slots of a typed column hold placeholders (0 / 0.0 /
/// ""); the null mask is allocated at the first NULL.
class TableColumn {
 public:
  ColType type() const { return type_; }
  std::size_t size() const { return size_; }

  /// Null byte-mask (1 = NULL) over every cell, or nullptr while no cell
  /// is NULL.
  const unsigned char* null_data() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }
  bool is_null(std::size_t i) const { return !nulls_.empty() && nulls_[i]; }

  /// Typed cells; valid only for the matching type().
  const std::int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return dbls_.data(); }
  const std::string* str_data() const { return strs_.data(); }
  const Value* mixed_data() const { return mixed_.data(); }

  /// Cell `i` as the Value that was appended.
  Value value_at(std::size_t i) const;
  /// Value::byte_size() of cell `i`.
  std::size_t cell_bytes(std::size_t i) const;

  void append(const Value& v);

 private:
  void demote();

  ColType type_ = ColType::Null;
  std::size_t size_ = 0;
  std::vector<unsigned char> nulls_;  // empty until the first NULL
  std::vector<std::int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<std::string> strs_;
  std::vector<Value> mixed_;
};

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);
  Table(Schema schema, const std::vector<Row>& rows);

  const Schema& schema() const { return schema_; }
  const TableColumn& column(std::size_t c) const { return cols_[c]; }

  std::size_t row_count() const { return rows_; }
  /// Sum of row_byte_size over every row.
  std::size_t byte_size() const { return bytes_; }

  /// Append one row; must match the schema arity.
  void append(const Row& row);
  /// Append every row of `other` (same arity), column by column.
  void append_rows(const Table& other);

  /// Row `i`, built from the columns.
  Row row(std::size_t i) const;
  /// Every row, built from the columns (a copy; prefer row(i) or a
  /// ColumnBatch view).
  std::vector<Row> rows() const;
  /// row_byte_size(row(i)), from the columns.
  std::size_t row_byte_size(std::size_t i) const;

  /// Render the first `limit` rows as an aligned text block (debug aid).
  std::string to_string(std::size_t limit = 20) const;

 private:
  Schema schema_;
  std::vector<TableColumn> cols_;
  std::size_t rows_ = 0;
  std::size_t bytes_ = 0;
};

/// True if the two tables contain the same multiset of rows (order
/// insensitive); used by the differential tests against refdb.
bool same_rows_unordered(const Table& a, const Table& b);

}  // namespace ysmart
