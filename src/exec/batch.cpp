#include "exec/batch.h"

#include <atomic>

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

ColumnBatch::ColumnBatch(std::span<const Row> rows) : rows_(rows) {
  init_shape();
}

ColumnBatch::ColumnBatch(std::span<const Row* const> rows)
    : ptrs_(rows), by_ptr_(true) {
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
  sub.rows_ = rows_;
  sub.ptrs_ = ptrs_;
  sub.by_ptr_ = by_ptr_;
  sub.has_sel_ = true;
  sub.sel_.reserve(local.size());
  for (const std::uint32_t i : local)
    sub.sel_.push_back(has_sel_ ? sel_[i] : i);
  sub.init_shape();
  return sub;
}

// Single optimistic pass per column: the first non-null cell fixes the
// physical type and the typed vector fills as the scan goes (separate
// tight loops per type — a per-cell type state machine fused across
// columns measured slower, since a batch stays cache-resident between
// walks). A conflicting cell demotes the column to Mixed and refills
// from scratch (at most one restart, only on genuinely mixed columns).
void ColumnBatch::pivot_one(std::size_t c) {
  auto col = std::make_unique<ColumnVector>();
  const std::size_t n = rows();
  col->size_ = n;

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
      col->ints_.assign(i, 0);  // placeholders for the leading NULLs
      col->ints_.reserve(n);
      for (; i < n; ++i) {
        const Value& v = source_row(i)[c];
        const ValueType vt = v.type();
        if (vt == ValueType::Int) {
          col->ints_.push_back(v.as_int());
        } else if (vt == ValueType::Null) {
          any_null = true;
          col->ints_.push_back(0);
        } else {
          t = ColType::Mixed;
          break;
        }
      }
      break;
    case ColType::Double:
      col->dbls_.assign(i, 0.0);
      col->dbls_.reserve(n);
      for (; i < n; ++i) {
        const Value& v = source_row(i)[c];
        const ValueType vt = v.type();
        if (vt == ValueType::Double) {
          col->dbls_.push_back(v.as_double());
        } else if (vt == ValueType::Null) {
          any_null = true;
          col->dbls_.push_back(0.0);
        } else {
          t = ColType::Mixed;
          break;
        }
      }
      break;
    case ColType::String:
      col->strs_.assign(i, &empty_string());
      col->strs_.reserve(n);
      for (; i < n; ++i) {
        const Value& v = source_row(i)[c];
        const ValueType vt = v.type();
        if (vt == ValueType::String) {
          col->strs_.push_back(&v.as_string());
        } else if (vt == ValueType::Null) {
          any_null = true;
          col->strs_.push_back(&empty_string());
        } else {
          t = ColType::Mixed;
          break;
        }
      }
      break;
  }
  if (t == ColType::Mixed) {
    col->ints_.clear();
    col->dbls_.clear();
    col->strs_.clear();
    any_null = false;
    col->mixed_.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      const Value& v = source_row(j)[c];
      if (v.is_null()) any_null = true;
      col->mixed_.push_back(&v);
    }
  }
  col->type_ = t;
  if (any_null) {
    col->nulls_.resize(n, 0);
    for (std::size_t j = 0; j < n; ++j)
      if (source_row(j)[c].is_null()) col->nulls_[j] = 1;
  }
  cols_[c] = std::move(col);
}

const ColumnVector& ColumnBatch::column(std::size_t c) {
  check(regular_, "ColumnBatch::column on an irregular batch");
  check(c < num_cols_, "ColumnBatch::column index out of range");
  if (!cols_[c]) pivot_one(c);
  return *cols_[c];
}

Row ColumnBatch::materialize_row(std::size_t i) {
  Row r;
  r.reserve(num_cols_);
  for (std::size_t c = 0; c < num_cols_; ++c) r.push_back(column(c).value_at(i));
  return r;
}

}  // namespace ysmart
