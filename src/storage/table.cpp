#include "storage/table.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace ysmart {

namespace {

ColType col_type_of(ValueType t) {
  switch (t) {
    case ValueType::Int: return ColType::Int64;
    case ValueType::Double: return ColType::Double;
    case ValueType::String: return ColType::String;
    case ValueType::Null: break;
  }
  return ColType::Null;
}

}  // namespace

Value TableColumn::value_at(std::size_t i) const {
  if (is_null(i)) return Value::null();
  switch (type_) {
    case ColType::Null: return Value::null();
    case ColType::Int64: return Value{ints_[i]};
    case ColType::Double: return Value{dbls_[i]};
    case ColType::String: return Value{strs_[i]};
    case ColType::Mixed: return mixed_[i];
  }
  return Value::null();
}

std::size_t TableColumn::cell_bytes(std::size_t i) const {
  if (is_null(i)) return 1;
  switch (type_) {
    case ColType::Null: return 1;
    case ColType::Int64:
    case ColType::Double: return 8;
    case ColType::String: return 2 + strs_[i].size();
    case ColType::Mixed: return mixed_[i].byte_size();
  }
  return 1;
}

void TableColumn::demote() {
  std::vector<Value> cells;
  cells.reserve(size_ + 1);
  for (std::size_t i = 0; i < size_; ++i) cells.push_back(value_at(i));
  ints_ = {};
  dbls_ = {};
  strs_ = {};
  mixed_ = std::move(cells);
  type_ = ColType::Mixed;
}

void TableColumn::append(const Value& v) {
  const ValueType vt = v.type();
  if (vt == ValueType::Null) {
    if (nulls_.empty()) nulls_.assign(size_, 0);
    nulls_.push_back(1);
    switch (type_) {
      case ColType::Null: break;
      case ColType::Int64: ints_.push_back(0); break;
      case ColType::Double: dbls_.push_back(0.0); break;
      case ColType::String: strs_.emplace_back(); break;
      case ColType::Mixed: mixed_.emplace_back(); break;
    }
    ++size_;
    return;
  }
  const ColType t = col_type_of(vt);
  if (type_ == ColType::Null) {
    // The first non-null cell: every cell so far is NULL, one placeholder
    // each.
    if (t == ColType::Int64) ints_.assign(size_, 0);
    if (t == ColType::Double) dbls_.assign(size_, 0.0);
    if (t == ColType::String) strs_.assign(size_, std::string());
    type_ = t;
  } else if (type_ != t && type_ != ColType::Mixed) {
    demote();
  }
  if (!nulls_.empty()) nulls_.push_back(0);
  switch (type_) {
    case ColType::Int64: ints_.push_back(v.as_int()); break;
    case ColType::Double: dbls_.push_back(v.as_double()); break;
    case ColType::String: strs_.push_back(v.as_string()); break;
    case ColType::Mixed: mixed_.push_back(v); break;
    case ColType::Null: break;
  }
  ++size_;
}

Table::Table(Schema schema)
    : schema_(std::move(schema)), cols_(schema_.size()) {}

Table::Table(Schema schema, const std::vector<Row>& rows)
    : Table(std::move(schema)) {
  for (const auto& r : rows) append(r);
}

void Table::append(const Row& row) {
  if (row.size() != cols_.size())
    throw InternalError("Table::append: row arity does not match schema");
  std::size_t bytes = 4;  // row_byte_size's per-row framing
  for (std::size_t c = 0; c < row.size(); ++c) {
    bytes += row[c].byte_size();
    cols_[c].append(row[c]);
  }
  bytes_ += bytes;
  ++rows_;
}

void Table::append_rows(const Table& other) {
  if (other.cols_.size() != cols_.size())
    throw InternalError("Table::append_rows: arity does not match schema");
  for (std::size_t c = 0; c < cols_.size(); ++c)
    for (std::size_t i = 0; i < other.rows_; ++i)
      cols_[c].append(other.cols_[c].value_at(i));
  rows_ += other.rows_;
  bytes_ += other.bytes_;
}

Row Table::row(std::size_t i) const {
  Row r;
  r.reserve(cols_.size());
  for (const TableColumn& c : cols_) r.push_back(c.value_at(i));
  return r;
}

std::vector<Row> Table::rows() const {
  std::vector<Row> out;
  out.reserve(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out.push_back(row(i));
  return out;
}

std::size_t Table::row_byte_size(std::size_t i) const {
  std::size_t n = 4;
  for (const TableColumn& c : cols_) n += c.cell_bytes(i);
  return n;
}

std::string Table::to_string(std::size_t limit) const {
  std::string out = schema_.to_string() + "\n";
  const std::size_t n = std::min(limit, rows_);
  for (std::size_t i = 0; i < n; ++i) out += row_to_string(row(i)) + "\n";
  if (rows_ > n) out += strf("... (%zu more rows)\n", rows_ - n);
  return out;
}

bool same_rows_unordered(const Table& a, const Table& b) {
  if (a.row_count() != b.row_count()) return false;
  auto ra = a.rows();
  auto rb = b.rows();
  std::sort(ra.begin(), ra.end(), RowLess{});
  std::sort(rb.begin(), rb.end(), RowLess{});
  for (std::size_t i = 0; i < ra.size(); ++i)
    if (compare_rows(ra[i], rb[i]) != 0) return false;
  return true;
}

}  // namespace ysmart
