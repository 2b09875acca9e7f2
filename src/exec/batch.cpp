#include "exec/batch.h"

#include <atomic>
#include <cstring>

#include "common/env.h"
#include "common/error.h"

namespace ysmart {

namespace {

std::atomic<bool>& vectorized_flag() {
  static std::atomic<bool> flag{env_flag("YSMART_VECTORIZED").value_or(true)};
  return flag;
}

const std::string& empty_string() {
  static const std::string empty;
  return empty;
}

}  // namespace

bool vectorized_enabled() {
  return vectorized_flag().load(std::memory_order_relaxed);
}

void set_vectorized_enabled(bool on) {
  vectorized_flag().store(on, std::memory_order_relaxed);
}

Value ColumnVector::value_at(std::size_t i) const {
  if (is_null(i)) return Value::null();
  switch (type_) {
    case ColType::Null: return Value::null();
    case ColType::Int64: return Value{ints_[i]};
    case ColType::Double: return Value{dbls_[i]};
    case ColType::String: return Value{*strs_[i]};
    case ColType::Mixed: return *mixed_[i];
  }
  return Value::null();
}

ColumnBatch::ColumnBatch(const Table& table, std::size_t first,
                         std::size_t count)
    : source_(Source::Table),
      table_(&table),
      first_(first),
      count_(count),
      num_cols_(table.schema().size()),
      cols_(num_cols_) {
  check(first <= table.row_count() && count <= table.row_count() - first,
        "ColumnBatch: row range outside the table");
}

ColumnBatch::ColumnBatch(std::span<const Row> rows)
    : source_(Source::Rows), rows_(rows), count_(rows.size()) {
  init_shape();
}

ColumnBatch::ColumnBatch(std::span<const Row* const> rows)
    : source_(Source::RowPtrs), ptrs_(rows), count_(rows.size()) {
  init_shape();
}

void ColumnBatch::init_shape() {
  const std::size_t n = rows();
  num_cols_ = n == 0 ? 0 : source_row(0).size();
  for (std::size_t i = 1; i < n; ++i)
    if (source_row(i).size() != num_cols_) {
      regular_ = false;
      break;
    }
  cols_.resize(regular_ ? num_cols_ : 0);
}

ColumnBatch ColumnBatch::select(const std::vector<std::uint32_t>& local) const {
  ColumnBatch sub;
  sub.source_ = source_;
  sub.rows_ = rows_;
  sub.ptrs_ = ptrs_;
  sub.table_ = table_;
  sub.first_ = first_;
  sub.count_ = count_;
  sub.has_sel_ = true;
  sub.sel_.reserve(local.size());
  for (const std::uint32_t i : local)
    sub.sel_.push_back(has_sel_ ? sel_[i] : i);
  if (source_ == Source::Table) {
    sub.num_cols_ = num_cols_;
    sub.cols_.resize(num_cols_);
  } else {
    sub.init_shape();
  }
  return sub;
}

Row ColumnBatch::copy_row(std::size_t i) const {
  if (source_ != Source::Table) return source_row(i);
  return table_->row(first_ + (has_sel_ ? sel_[i] : i));
}

void ColumnBatch::build_rows() const {
  const std::size_t n = rows();
  built_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) built_.push_back(copy_row(i));
}

// A table column is typed already: the view points into it at the
// batch's first row, or gathers the selected cells. Only String and Mixed
// columns need a pointer array.
void ColumnBatch::view_table_column(std::size_t c, ColumnVector& col) const {
  const TableColumn& src = table_->column(c);
  const std::size_t n = rows();
  col.type_ = src.type();
  col.size_ = n;
  auto at = [&](std::size_t k) { return first_ + (has_sel_ ? sel_[k] : k); };
  const unsigned char* nu = src.null_data();
  if (!has_sel_) {
    if (nu && std::memchr(nu + first_, 1, n) != nullptr) col.nulls_ = nu + first_;
    if (col.type_ == ColType::Int64) col.ints_ = src.int_data() + first_;
    if (col.type_ == ColType::Double) col.dbls_ = src.double_data() + first_;
  } else {
    if (nu) {
      bool any = false;
      col.own_nulls_.resize(n);
      for (std::size_t k = 0; k < n; ++k)
        any |= (col.own_nulls_[k] = nu[at(k)]) != 0;
      if (any) col.nulls_ = col.own_nulls_.data();
    }
    if (col.type_ == ColType::Int64) {
      col.own_ints_.resize(n);
      for (std::size_t k = 0; k < n; ++k)
        col.own_ints_[k] = src.int_data()[at(k)];
      col.ints_ = col.own_ints_.data();
    }
    if (col.type_ == ColType::Double) {
      col.own_dbls_.resize(n);
      for (std::size_t k = 0; k < n; ++k)
        col.own_dbls_[k] = src.double_data()[at(k)];
      col.dbls_ = col.own_dbls_.data();
    }
  }
  if (col.type_ == ColType::String) {
    col.own_strs_.resize(n);
    for (std::size_t k = 0; k < n; ++k) col.own_strs_[k] = src.str_data() + at(k);
    col.strs_ = col.own_strs_.data();
  }
  if (col.type_ == ColType::Mixed) {
    col.own_mixed_.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      col.own_mixed_[k] = src.mixed_data() + at(k);
    col.mixed_ = col.own_mixed_.data();
  }
}

// Single optimistic pass per column: the first non-null cell fixes the
// physical type and the typed vector fills as the scan goes (separate
// tight loops per type — a per-cell type state machine fused across
// columns measured slower, since a batch stays cache-resident between
// walks). A conflicting cell demotes the column to Mixed and refills
// from scratch (at most one restart, only on genuinely mixed columns).
void ColumnBatch::pivot_one(std::size_t c, ColumnVector& col) const {
  const std::size_t n = rows();
  col.size_ = n;

  bool any_null = false;
  std::size_t i = 0;
  while (i < n && source_row(i)[c].is_null()) {
    any_null = true;
    ++i;
  }
  ColType t = ColType::Null;
  if (i < n) {
    switch (source_row(i)[c].type()) {
      case ValueType::Int: t = ColType::Int64; break;
      case ValueType::Double: t = ColType::Double; break;
      case ValueType::String: t = ColType::String; break;
      default: t = ColType::Mixed; break;
    }
  }
  switch (t) {
    case ColType::Null:
    case ColType::Mixed:
      break;
    case ColType::Int64:
      col.own_ints_.assign(i, 0);  // placeholders for the leading NULLs
      col.own_ints_.reserve(n);
      for (; i < n; ++i) {
        const Value& v = source_row(i)[c];
        const ValueType vt = v.type();
        if (vt == ValueType::Int) {
          col.own_ints_.push_back(v.as_int());
        } else if (vt == ValueType::Null) {
          any_null = true;
          col.own_ints_.push_back(0);
        } else {
          t = ColType::Mixed;
          break;
        }
      }
      break;
    case ColType::Double:
      col.own_dbls_.assign(i, 0.0);
      col.own_dbls_.reserve(n);
      for (; i < n; ++i) {
        const Value& v = source_row(i)[c];
        const ValueType vt = v.type();
        if (vt == ValueType::Double) {
          col.own_dbls_.push_back(v.as_double());
        } else if (vt == ValueType::Null) {
          any_null = true;
          col.own_dbls_.push_back(0.0);
        } else {
          t = ColType::Mixed;
          break;
        }
      }
      break;
    case ColType::String:
      col.own_strs_.assign(i, &empty_string());
      col.own_strs_.reserve(n);
      for (; i < n; ++i) {
        const Value& v = source_row(i)[c];
        const ValueType vt = v.type();
        if (vt == ValueType::String) {
          col.own_strs_.push_back(&v.as_string());
        } else if (vt == ValueType::Null) {
          any_null = true;
          col.own_strs_.push_back(&empty_string());
        } else {
          t = ColType::Mixed;
          break;
        }
      }
      break;
  }
  if (t == ColType::Mixed) {
    col.own_ints_.clear();
    col.own_dbls_.clear();
    col.own_strs_.clear();
    any_null = false;
    col.own_mixed_.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      const Value& v = source_row(j)[c];
      if (v.is_null()) any_null = true;
      col.own_mixed_.push_back(&v);
    }
  }
  col.type_ = t;
  if (any_null) {
    col.own_nulls_.resize(n, 0);
    for (std::size_t j = 0; j < n; ++j)
      if (source_row(j)[c].is_null()) col.own_nulls_[j] = 1;
  }
  col.nulls_ = col.own_nulls_.empty() ? nullptr : col.own_nulls_.data();
  col.ints_ = col.own_ints_.data();
  col.dbls_ = col.own_dbls_.data();
  col.strs_ = col.own_strs_.data();
  col.mixed_ = col.own_mixed_.data();
}

const ColumnVector& ColumnBatch::column(std::size_t c) {
  check(regular_, "ColumnBatch::column on an irregular batch");
  check(c < num_cols_, "ColumnBatch::column index out of range");
  if (!cols_[c]) {
    auto col = std::make_unique<ColumnVector>();
    if (source_ == Source::Table)
      view_table_column(c, *col);
    else
      pivot_one(c, *col);
    cols_[c] = std::move(col);
  }
  return *cols_[c];
}

Row ColumnBatch::materialize_row(std::size_t i) {
  Row r;
  r.reserve(num_cols_);
  for (std::size_t c = 0; c < num_cols_; ++c) r.push_back(column(c).value_at(i));
  return r;
}

}  // namespace ysmart
