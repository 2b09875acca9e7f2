#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/prof_counters.h"
#include "common/strings.h"

namespace ysmart {

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::Null: return "NULL";
    case ValueType::Int: return "INT";
    case ValueType::Double: return "DOUBLE";
    case ValueType::String: return "STRING";
  }
  return "?";
}

std::int64_t Value::as_int() const {
  if (auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  throw ExecError("value is not an INT: " + to_string());
}

double Value::as_double() const {
  if (auto* p = std::get_if<double>(&v_)) return *p;
  throw ExecError("value is not a DOUBLE: " + to_string());
}

const std::string& Value::as_string() const {
  if (auto* p = std::get_if<std::string>(&v_)) return *p;
  throw ExecError("value is not a STRING: " + to_string());
}

double Value::numeric() const {
  switch (type()) {
    case ValueType::Int: return static_cast<double>(std::get<std::int64_t>(v_));
    case ValueType::Double: return std::get<double>(v_);
    default:
      throw ExecError("value is not numeric: " + to_string());
  }
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::Null: return "NULL";
    case ValueType::Int: return std::to_string(std::get<std::int64_t>(v_));
    case ValueType::Double: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.4f", std::get<double>(v_));
      return buf;
    }
    case ValueType::String: return std::get<std::string>(v_);
  }
  return "?";
}

std::size_t Value::byte_size() const {
  switch (type()) {
    case ValueType::Null: return 1;
    case ValueType::Int: return 8;
    case ValueType::Double: return 8;
    case ValueType::String: return 2 + std::get<std::string>(v_).size();
  }
  return 1;
}

/// Exact three-way comparison of an int64 against a double — no cast of
/// the int to double, which would collapse neighbours beyond 2^53 and
/// break the total order (int 2^53 < int 2^53+1, yet both would "equal"
/// double 2^53.0). NaN keeps its historical behaviour of comparing
/// "equal" to any numeric.
std::strong_ordering compare_int_double(std::int64_t i, double d) {
  if (std::isnan(d)) return std::strong_ordering::equal;
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
  if (d >= kTwo63) return std::strong_ordering::less;
  if (d < -kTwo63) return std::strong_ordering::greater;
  // floor(d) now fits in int64 exactly (doubles this large are integers,
  // doubles this small have an exactly representable floor).
  const double fl = std::floor(d);
  const auto f = static_cast<std::int64_t>(fl);
  if (i != f) return i <=> f;
  return d > fl ? std::strong_ordering::less : std::strong_ordering::equal;
}

std::strong_ordering Value::compare(const Value& other) const {
  prof::count(prof::kCellCompares);
  const bool a_num = type() == ValueType::Int || type() == ValueType::Double;
  const bool b_num =
      other.type() == ValueType::Int || other.type() == ValueType::Double;
  if (a_num && b_num) {
    // Compare numerically across Int/Double so that grouping by a key that
    // is int in one branch and double in another behaves sanely.
    if (type() == ValueType::Int && other.type() == ValueType::Int) {
      const auto a = std::get<std::int64_t>(v_);
      const auto b = std::get<std::int64_t>(other.v_);
      return a <=> b;
    }
    if (type() == ValueType::Int)
      return compare_int_double(std::get<std::int64_t>(v_),
                                std::get<double>(other.v_));
    if (other.type() == ValueType::Int) {
      const auto c = compare_int_double(std::get<std::int64_t>(other.v_),
                                        std::get<double>(v_));
      if (c == std::strong_ordering::less) return std::strong_ordering::greater;
      if (c == std::strong_ordering::greater) return std::strong_ordering::less;
      return std::strong_ordering::equal;
    }
    const double a = std::get<double>(v_);
    const double b = std::get<double>(other.v_);
    if (a < b) return std::strong_ordering::less;
    if (a > b) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  // Rank: Null(0) < numeric(1) < String(2).
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::Null: return 0;
      case ValueType::Int:
      case ValueType::Double: return 1;
      case ValueType::String: return 2;
    }
    return 3;
  };
  if (rank(type()) != rank(other.type()))
    return rank(type()) <=> rank(other.type());
  if (type() == ValueType::Null) return std::strong_ordering::equal;
  const auto& a = std::get<std::string>(v_);
  const auto& b = std::get<std::string>(other.v_);
  const int c = a.compare(b);
  return c <=> 0;
}

std::size_t Value::hash() const {
  switch (type()) {
    case ValueType::Null: return 0x9e3779b97f4a7c15ULL;
    case ValueType::Int: {
      // Hash ints through double when they fit exactly so that 1 and 1.0
      // hash identically (they compare equal). Ints within 512 of
      // INT64_MAX round up to 2^63, which int64 cannot hold, so the cast
      // back is only made below it.
      const auto i = std::get<std::int64_t>(v_);
      const double d = static_cast<double>(i);
      if (d < 9223372036854775808.0 && static_cast<std::int64_t>(d) == i)
        return std::hash<double>{}(d);
      return std::hash<std::int64_t>{}(i);
    }
    case ValueType::Double: return std::hash<double>{}(std::get<double>(v_));
    case ValueType::String:
      return std::hash<std::string>{}(std::get<std::string>(v_));
  }
  return 0;
}

void Value::encode(std::string& out) const {
  prof::count(prof::kCellsEncoded);
  switch (type()) {
    case ValueType::Null:
      out.push_back('N');
      break;
    case ValueType::Int: {
      out.push_back('I');
      std::int64_t i = std::get<std::int64_t>(v_);
      out.append(reinterpret_cast<const char*>(&i), sizeof(i));
      break;
    }
    case ValueType::Double: {
      out.push_back('D');
      double d = std::get<double>(v_);
      out.append(reinterpret_cast<const char*>(&d), sizeof(d));
      break;
    }
    case ValueType::String: {
      out.push_back('S');
      const auto& s = std::get<std::string>(v_);
      std::uint32_t n = static_cast<std::uint32_t>(s.size());
      out.append(reinterpret_cast<const char*>(&n), sizeof(n));
      out.append(s);
      break;
    }
  }
}

Value Value::decode(const std::string& in, std::size_t& pos) {
  prof::count(prof::kCellsDecoded);
  // Every read is bounds-checked up front so truncated or corrupt input
  // fails loudly (with the offending offset) instead of reading past the
  // end of the buffer; `pos` is only advanced past validated bytes.
  if (pos >= in.size())
    throw InternalError(
        strf("Value::decode: no tag byte at offset %zu (buffer is %zu bytes)",
             pos, in.size()));
  const char tag = in[pos++];
  switch (tag) {
    case 'N':
      return Value::null();
    case 'I': {
      std::int64_t i;
      if (in.size() - pos < sizeof(i))
        throw InternalError(
            strf("Value::decode: truncated int at offset %zu (need 8 bytes, "
                 "have %zu)",
                 pos, in.size() - pos));
      std::memcpy(&i, in.data() + pos, sizeof(i));
      pos += sizeof(i);
      return Value{i};
    }
    case 'D': {
      double d;
      if (in.size() - pos < sizeof(d))
        throw InternalError(
            strf("Value::decode: truncated double at offset %zu (need 8 "
                 "bytes, have %zu)",
                 pos, in.size() - pos));
      std::memcpy(&d, in.data() + pos, sizeof(d));
      pos += sizeof(d);
      return Value{d};
    }
    case 'S': {
      std::uint32_t n;
      if (in.size() - pos < sizeof(n))
        throw InternalError(
            strf("Value::decode: truncated string length at offset %zu", pos));
      std::memcpy(&n, in.data() + pos, sizeof(n));
      pos += sizeof(n);
      if (in.size() - pos < n)
        throw InternalError(
            strf("Value::decode: truncated string body at offset %zu "
                 "(length says %u bytes, have %zu)",
                 pos, n, in.size() - pos));
      Value v{in.substr(pos, n)};
      pos += n;
      return v;
    }
    default:
      throw InternalError(strf(
          "Value::decode: bad tag byte 0x%02x at offset %zu",
          static_cast<unsigned>(static_cast<unsigned char>(tag)), pos - 1));
  }
}

std::size_t row_byte_size(const Row& r) {
  std::size_t n = 4;  // per-row framing overhead
  for (const auto& v : r) n += v.byte_size();
  return n;
}

std::string row_to_string(const Row& r) {
  std::string out = "(";
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (i) out += ", ";
    out += r[i].to_string();
  }
  out += ")";
  return out;
}

std::size_t RowHash::operator()(const Row& r) const {
  std::size_t h = 0x2545f4914f6cdd1dULL;
  for (const auto& v : r) h = h * 1099511628211ULL ^ v.hash();
  return h;
}

std::strong_ordering compare_rows(const Row& a, const Row& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = a[i].compare(b[i]);
    if (c != 0) return c;
  }
  return a.size() <=> b.size();
}

}  // namespace ysmart
