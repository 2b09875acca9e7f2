// Property and regression tests for the normalized key encoding
// (common/normkey.h): the byte order of encoded keys must agree with
// compare_rows on every pair, encode/decode must round-trip, and the
// decoders (norm-key and wire-format Value::decode) must reject
// truncated or corrupt buffers loudly instead of reading past the end.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/normkey.h"
#include "common/prof_counters.h"
#include "common/rng.h"
#include "common/value.h"

namespace ysmart {
namespace {

int sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

int sign(std::strong_ordering c) {
  if (c == std::strong_ordering::less) return -1;
  if (c == std::strong_ordering::greater) return 1;
  return 0;
}

std::string encode_one(const Value& v) {
  std::string out;
  append_norm_key(v, out);
  return out;
}

/// Curated Int pool: zero, units, the int64 extremes, and the 2^53
/// neighbourhood where a lossy double cast would collapse neighbours.
const std::vector<std::int64_t>& int_pool() {
  static const std::vector<std::int64_t> pool = [] {
    std::vector<std::int64_t> p = {
        0, 1, -1, 2, -2, 42, -1000,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::min() + 1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::max() - 1,
    };
    const std::int64_t two53 = std::int64_t{1} << 53;
    for (std::int64_t d = -2; d <= 2; ++d) {
      p.push_back(two53 + d);
      p.push_back(-two53 + d);
    }
    return p;
  }();
  return pool;
}

/// Curated Double pool: signed zeros, infinities, subnormals, values
/// adjacent to the 2^53 integer boundary, and tiny negatives (the case
/// that breaks naive floor-plus-fraction encodings).
const std::vector<double>& double_pool() {
  static const std::vector<double> pool = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, -1.5,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      9007199254740992.0,                         // 2^53
      std::nextafter(9007199254740992.0, 1e300),  // 2^53 + 2
      -9007199254740992.0,
      9.223372036854776e18,   // just above 2^63
      -9.223372036854776e18,  // at/below -2^63
      1e-300, -1e-300, 1e300, -1e300, 3.141592653589793,
  };
  return pool;
}

const std::vector<std::string>& string_pool() {
  static const std::vector<std::string> pool = {
      "", std::string(1, '\0'), std::string("a\0b", 3),
      std::string("a\0", 2), "a", "ab", "b", "\xff", "\xff\xff",
      std::string("\0\xff", 2), std::string("\xff\0", 2), "zzz",
  };
  return pool;
}

Value random_value(Rng& rng) {
  switch (rng.uniform(0, 9)) {
    case 0:
      return Value::null();
    case 1:
    case 2:
      return Value{int_pool()[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(int_pool().size()) - 1))]};
    case 3:
      return Value{rng.uniform(std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max())};
    case 4:
    case 5:
      return Value{double_pool()[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(double_pool().size()) - 1))]};
    case 6: {
      // Random finite double from raw bits (covers subnormals and the
      // full exponent range; NaN excluded — compare_rows treats it as
      // incomparable, so the order property does not apply to it).
      double d;
      do {
        d = std::bit_cast<double>(rng.next());
      } while (std::isnan(d));
      return Value{d};
    }
    case 7:
      return Value{string_pool()[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(string_pool().size()) - 1))]};
    default: {
      std::string s = rng.ident(static_cast<std::size_t>(rng.uniform(0, 6)));
      if (rng.uniform(0, 3) == 0 && !s.empty())
        s[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(s.size()) - 1))] =
            rng.uniform(0, 1) ? '\0' : '\xff';
      return Value{std::move(s)};
    }
  }
}

Row random_row(Rng& rng) {
  Row r;
  const auto n = rng.uniform(0, 3);
  for (std::int64_t i = 0; i < n; ++i) r.push_back(random_value(rng));
  return r;
}

// The central property, on ~10^5 seeded-random row pairs: byte order of
// the encodings agrees in sign with compare_rows, byte equality is key
// equality, and equal keys hash identically.
TEST(NormKey, OrderMatchesCompareRowsOnRandomPairs) {
  Rng rng(20260806);
  for (int iter = 0; iter < 100000; ++iter) {
    const Row a = random_row(rng);
    const Row b = random_row(rng);
    const std::string ea = encode_norm_key(a);
    const std::string eb = encode_norm_key(b);
    const int want = sign(compare_rows(a, b));
    const int got = sign(norm_key_compare(ea, eb));
    ASSERT_EQ(got, want) << "iter " << iter << ": " << row_to_string(a)
                         << " vs " << row_to_string(b);
    ASSERT_EQ(ea == eb, want == 0);
    if (want == 0) ASSERT_EQ(norm_key_hash(ea), norm_key_hash(eb));
  }
}

TEST(NormKey, RoundTripsOnRandomRows) {
  Rng rng(987654321);
  for (int iter = 0; iter < 20000; ++iter) {
    const Row r = random_row(rng);
    const std::string e = encode_norm_key(r);
    const Row back = decode_norm_key(e);
    // Int-vs-Double identity is deliberately not preserved (equal values
    // encode identically), so assert order-equality and re-encoding.
    ASSERT_EQ(sign(compare_rows(r, back)), 0)
        << "iter " << iter << ": " << row_to_string(r) << " decoded as "
        << row_to_string(back);
    ASSERT_EQ(encode_norm_key(back), e);
  }
}

TEST(NormKey, Int64BeyondTwo53StaysExact) {
  const std::int64_t two53 = std::int64_t{1} << 53;
  // A lossy cast to double would make both ints "equal" to 2^53.0.
  EXPECT_LT(norm_key_compare(encode_one(Value{two53}),
                             encode_one(Value{two53 + 1})),
            0);
  EXPECT_EQ(norm_key_compare(encode_one(Value{two53}),
                             encode_one(Value{9007199254740992.0})),
            0);
  EXPECT_GT(norm_key_compare(encode_one(Value{two53 + 1}),
                             encode_one(Value{9007199254740992.0})),
            0);
  EXPECT_LT(norm_key_compare(
                encode_one(Value{std::numeric_limits<std::int64_t>::max()}),
                encode_one(Value{9.3e18})),
            0);
  EXPECT_GT(norm_key_compare(
                encode_one(Value{std::numeric_limits<std::int64_t>::min()}),
                encode_one(Value{-9.3e18})),
            0);
}

TEST(NormKey, EqualValuesEncodeIdentically) {
  EXPECT_EQ(encode_one(Value{5}), encode_one(Value{5.0}));
  EXPECT_EQ(encode_one(Value{0}), encode_one(Value{0.0}));
  EXPECT_EQ(encode_one(Value{0.0}), encode_one(Value{-0.0}));
  EXPECT_EQ(encode_one(Value{std::int64_t{1} << 40}),
            encode_one(Value{std::ldexp(1.0, 40)}));
}

TEST(NormKey, StringEdgeCases) {
  // Embedded NUL and 0xFF must not confuse the escaping; prefixes sort
  // first, exactly like std::string::compare.
  const std::vector<std::string> ordered = {
      "", std::string(1, '\0'), std::string("\0\xff", 2), "a",
      std::string("a\0", 2), std::string("a\0b", 3), "ab", "\xff"};
  for (std::size_t i = 0; i < ordered.size(); ++i)
    for (std::size_t j = 0; j < ordered.size(); ++j) {
      const int want = sign(Value{ordered[i]}.compare(Value{ordered[j]}));
      const int got = sign(norm_key_compare(encode_one(Value{ordered[i]}),
                                            encode_one(Value{ordered[j]})));
      ASSERT_EQ(got, want) << "strings " << i << " vs " << j;
    }
}

/// The documented cell layout (common/normkey.h), spelled out apart from
/// the encoder: frexp finds the binary exponent instead of bit fields.
std::string reference_encoding(const Value& v) {
  std::string out;
  if (v.is_null()) return std::string(1, '\x10');
  if (v.type() == ValueType::String) {
    out.push_back('\x30');
    for (const char c : v.as_string()) {
      out.push_back(c);
      if (c == '\0') out.push_back('\xff');
    }
    out.push_back('\0');
    out.push_back('\x01');
    return out;
  }
  out.push_back('\x20');
  bool negative = false;
  int exponent = 0;
  std::uint64_t fraction = 0;
  if (v.type() == ValueType::Int) {
    const std::int64_t i = v.as_int();
    if (i == 0) return out + '\x02';
    negative = i < 0;
    const std::uint64_t mag = negative ? 0 - static_cast<std::uint64_t>(i)
                                       : static_cast<std::uint64_t>(i);
    exponent = 63 - std::countl_zero(mag);
    fraction = exponent == 0 ? 0 : mag << (64 - exponent);
  } else {
    const double d = v.as_double();
    if (std::isnan(d)) return out + '\x05';
    if (std::isinf(d)) return out + (d < 0 ? '\x00' : '\x04');
    if (d == 0) return out + '\x02';
    negative = d < 0;
    const double m = std::frexp(std::fabs(d), &exponent);  // m in [0.5, 1)
    exponent -= 1;
    // 2m - 1 holds at most 52 significant bits, so scaling it by 2^64
    // and converting is exact.
    fraction = static_cast<std::uint64_t>(std::ldexp(2 * m - 1, 64));
  }
  out.push_back(negative ? '\x01' : '\x03');
  const auto biased = static_cast<std::uint16_t>(exponent + 1100);
  std::string payload;
  payload.push_back(static_cast<char>(biased >> 8));
  payload.push_back(static_cast<char>(biased & 0xFF));
  for (int shift = 56; shift >= 0; shift -= 8)
    payload.push_back(static_cast<char>((fraction >> shift) & 0xFF));
  if (negative)
    for (char& c : payload) c = static_cast<char>(~c);
  return out + payload;
}

/// The typed encoder for v's type, appended to a non-empty buffer.
std::string typed_encoding(const Value& v) {
  std::string out = "prefix";
  switch (v.type()) {
    case ValueType::Null: append_norm_key_null(out); break;
    case ValueType::Int: append_norm_key_int(v.as_int(), out); break;
    case ValueType::Double: append_norm_key_double(v.as_double(), out); break;
    case ValueType::String: append_norm_key_string(v.as_string(), out); break;
  }
  return out.substr(6);
}

// The typed per-cell encoders (which append_norm_key delegates to) write
// exactly the documented bytes on the edge-case pools — int64 extremes
// and the 2^53 neighbourhood, ±0.0, ±inf, NaN, subnormals, strings with
// embedded NUL and 0xFF — and on seeded random cells; each counts one
// encoded cell.
TEST(NormKey, TypedEncodersWriteTheDocumentedBytes) {
  std::vector<Value> cells = {Value::null(),
                              Value{std::numeric_limits<double>::quiet_NaN()},
                              Value{-std::numeric_limits<double>::quiet_NaN()}};
  for (const std::int64_t i : int_pool()) cells.push_back(Value{i});
  for (const double d : double_pool()) cells.push_back(Value{d});
  for (const std::string& str : string_pool()) cells.push_back(Value{str});
  Rng rng(20261017);
  for (int i = 0; i < 20000; ++i) cells.push_back(random_value(rng));

  prof::acquire_enabled();
  for (const Value& v : cells) {
    const std::uint64_t before =
        prof::thread_snapshot().dispatch[prof::kCellsEncoded];
    const std::string typed = typed_encoding(v);
    const std::uint64_t counted =
        prof::thread_snapshot().dispatch[prof::kCellsEncoded] - before;
    ASSERT_EQ(typed, reference_encoding(v)) << v.to_string();
    ASSERT_EQ(encode_one(v), typed) << v.to_string();
    ASSERT_EQ(counted, 1u) << v.to_string();
  }
  prof::release_enabled();
}

TEST(NormKey, ShorterRowSortsFirst) {
  const Row a = {Value{1}};
  const Row b = {Value{1}, Value{"x"}};
  EXPECT_LT(norm_key_compare(encode_norm_key(a), encode_norm_key(b)), 0);
  EXPECT_EQ(sign(compare_rows(a, b)), -1);
}

TEST(NormKey, DecodeRejectsCorruptInput) {
  const std::string good = encode_norm_key({Value{1}, Value{"ab"}});
  // Any strict prefix that cuts a cell short must throw, not misparse.
  for (std::size_t n = 1; n < good.size(); ++n) {
    const std::string cut = good.substr(0, n);
    if (cut.size() == 1 || cut == good.substr(0, 12))
      continue;  // a whole number of cells is a valid (shorter) key
    EXPECT_THROW(decode_norm_key(cut), Error) << "prefix of " << n;
  }
  EXPECT_THROW(decode_norm_key("\x99"), Error);        // bad cell tag
  EXPECT_THROW(decode_norm_key("\x20\x7f"), Error);    // bad numeric class
  EXPECT_THROW(decode_norm_key("\x30"), Error);        // unterminated string
  std::string bad_escape("\x30x\0\x02", 4);            // bad escape byte
  EXPECT_THROW(decode_norm_key(bad_escape), Error);
}

// Regression tests for the hardened wire-format decoder: truncated or
// corrupt buffers produce a clear Error instead of reading past the end.
TEST(ValueDecode, RejectsTruncatedAndCorruptBuffers) {
  std::string buf;
  Value{std::int64_t{42}}.encode(buf);
  for (std::size_t n = 0; n < buf.size(); ++n) {
    const std::string cut = buf.substr(0, n);
    std::size_t pos = 0;
    EXPECT_THROW(Value::decode(cut, pos), InternalError) << "int cut " << n;
  }

  buf.clear();
  Value{2.5}.encode(buf);
  std::string cut = buf.substr(0, 5);
  std::size_t pos = 0;
  EXPECT_THROW(Value::decode(cut, pos), InternalError);

  buf.clear();
  Value{"hello"}.encode(buf);
  for (std::size_t n = 1; n < buf.size(); ++n) {
    cut = buf.substr(0, n);
    pos = 0;
    EXPECT_THROW(Value::decode(cut, pos), InternalError) << "string cut " << n;
  }

  // A declared string length far past the end of the buffer.
  std::string lying = "S";
  const std::uint32_t huge = 0xFFFFFFFFu;
  lying.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  lying += "xy";
  pos = 0;
  EXPECT_THROW(Value::decode(lying, pos), InternalError);

  pos = 0;
  EXPECT_THROW(Value::decode("Z", pos), InternalError);  // unknown tag
  pos = 0;
  EXPECT_THROW(Value::decode("", pos), InternalError);   // empty buffer
}

TEST(ValueDecode, ErrorMessagesNameTheOffset) {
  std::size_t pos = 0;
  try {
    Value::decode("I\x01\x02", pos);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

}  // namespace
}  // namespace ysmart
