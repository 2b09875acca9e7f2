// Value: the dynamically-typed cell used throughout the engine.
//
// Every relational datum flowing through the SQL frontend, the MapReduce
// runtime and the reference executor is a Value: SQL NULL, a 64-bit
// integer, a double, or a string. Values order NULLs first (as a total
// order for sorting/grouping) and compare with SQL three-valued semantics
// via the sql_* helpers in expr_eval.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace ysmart {

enum class ValueType { Null, Int, Double, String };

/// Human-readable name of a ValueType ("NULL", "INT", ...).
const char* to_string(ValueType t);

/// Int arithmetic wraps in two's complement, like Hive's BIGINT (a Java
/// long): it is done in uint64_t, where overflow is defined, and
/// converted back, which is modular. The row evaluator, the batch kernels
/// and the integer sum all use these, so they agree on every input.
inline std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapping_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapping_neg(std::int64_t a) { return wrapping_sub(0, a); }

class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(std::int64_t i) : v_(i) {}          // NOLINT(google-explicit-constructor)
  Value(int i) : v_(std::int64_t{i}) {}     // NOLINT(google-explicit-constructor)
  Value(double d) : v_(d) {}                // NOLINT(google-explicit-constructor)
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT(google-explicit-constructor)

  static Value null() { return Value{}; }

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::Null; }

  /// Accessors; each throws Error if the value holds a different type.
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Numeric coercion: Int or Double -> double. Throws on NULL/String.
  double numeric() const;

  /// Render for output (NULL prints as "NULL"; doubles with %.4f trimming).
  std::string to_string() const;

  /// Serialized size in bytes as accounted by the MR cost model.
  std::size_t byte_size() const;

  /// Total order used for sorting and grouping: NULL < Int/Double < String,
  /// with Int and Double compared numerically against each other.
  std::strong_ordering compare(const Value& other) const;

  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }

  /// Stable hash consistent with compare()'s equality (1 and 1.0 collide).
  std::size_t hash() const;

  /// Serialize to / parse from the compact wire format used by the DFS
  /// text files and the shuffle byte accounting.
  void encode(std::string& out) const;
  static Value decode(const std::string& in, std::size_t& pos);

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

/// Byte size of a whole row (sum of cells plus per-row framing).
std::size_t row_byte_size(const Row& r);

std::string row_to_string(const Row& r);

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};

struct RowHash {
  std::size_t operator()(const Row& r) const;
};

/// Exact three-way comparison of an int64 against a double — never casts
/// the int to double (which would collapse neighbours beyond 2^53). NaN
/// compares "equal" to any numeric, matching Value::compare. Exported so
/// the vectorized kernels (exec/vector_kernels.cpp) and the typed
/// aggregate adds reproduce Value::compare bit-for-bit without the
/// variant dispatch.
std::strong_ordering compare_int_double(std::int64_t i, double d);

/// Lexicographic comparison of rows under Value::compare.
std::strong_ordering compare_rows(const Row& a, const Row& b);

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return compare_rows(a, b) < 0;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return compare_rows(a, b) == 0;
  }
};

}  // namespace ysmart
