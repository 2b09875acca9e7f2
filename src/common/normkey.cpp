#include "common/normkey.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/prof_counters.h"
#include "common/strings.h"

namespace ysmart {

namespace {

// Cell tags, ordered like Value's type rank: NULL < numeric < string.
constexpr unsigned char kTagNull = 0x10;
constexpr unsigned char kTagNumeric = 0x20;
constexpr unsigned char kTagString = 0x30;

// Numeric class bytes, ordered along the number line. Int and Double
// meet inside kNumNeg/kNumPos, which carry an exact binary-scientific
// payload; the other classes need no payload.
constexpr unsigned char kNumNegInf = 0x00;
constexpr unsigned char kNumNeg = 0x01;
constexpr unsigned char kNumZero = 0x02;
constexpr unsigned char kNumPos = 0x03;
constexpr unsigned char kNumPosInf = 0x04;
constexpr unsigned char kNumNan = 0x05;  // defined order: NaN last

// Exponent bias for the payload: exponents span [-1074, 1023] (doubles
// down to the smallest subnormal) plus [0, 63] (int64), so +1100 keeps
// the biased value positive in 16 bits.
constexpr int kExpBias = 1100;

// String escaping: 0x00 inside a string becomes 0x00 0xFF, and the cell
// ends with 0x00 0x01. Bytewise order of the escaped stream equals
// bytewise order of the raw strings, prefixes sort first, and no escaped
// cell is a prefix of a different one.
constexpr unsigned char kStrEscape = 0xFF;
constexpr unsigned char kStrTerm = 0x01;

/// Exact binary scientific form of a nonzero finite numeric:
/// |value| = 1.fraction * 2^exponent, with the fraction bits left-aligned
/// in 64 bits. Both int64 (<= 63 significant bits) and double (<= 53)
/// fit losslessly, which is what makes the cross-type order exact where
/// a cast to double would collapse e.g. 2^53 and 2^53+1.
struct SciForm {
  int exponent = 0;
  std::uint64_t fraction = 0;  // bits below the leading 1, left-aligned
};

SciForm sci_from_magnitude(std::uint64_t mag, int exp_offset) {
  SciForm s;
  const int msb = 63 - std::countl_zero(mag);  // mag != 0
  s.exponent = msb + exp_offset;
  const std::uint64_t below = mag ^ (std::uint64_t{1} << msb);
  s.fraction = msb == 0 ? 0 : below << (64 - msb);
  return s;
}

SciForm sci_from_int(std::uint64_t mag) { return sci_from_magnitude(mag, 0); }

SciForm sci_from_double(double a) {  // a > 0, finite
  std::uint64_t u = std::bit_cast<std::uint64_t>(a);
  const std::uint64_t exp_field = u >> 52;
  const std::uint64_t mantissa = u & ((std::uint64_t{1} << 52) - 1);
  if (exp_field > 0) {  // normal: 1.mantissa * 2^(exp-1023)
    SciForm s;
    s.exponent = static_cast<int>(exp_field) - 1023;
    s.fraction = mantissa << 12;
    return s;
  }
  // Subnormal: mantissa * 2^-1074, normalized like an integer.
  return sci_from_magnitude(mantissa, -1074);
}

// Appends a numeric cell: the tag, the class byte and the 10-byte payload
// (big-endian biased exponent, then the fraction), composed in a fixed
// buffer and appended at once.
void append_numeric(bool negative, SciForm s, std::string& out) {
  // A more negative value has the larger magnitude; inverting the
  // payload bytes reverses the magnitude order under the negative class.
  const std::uint64_t flip = negative ? ~std::uint64_t{0} : 0;
  const auto exponent = static_cast<std::uint16_t>(s.exponent + kExpBias);
  const std::uint64_t fraction = s.fraction ^ flip;
  char buf[12];
  buf[0] = static_cast<char>(kTagNumeric);
  buf[1] = static_cast<char>(negative ? kNumNeg : kNumPos);
  buf[2] = static_cast<char>((exponent >> 8) ^ (flip & 0xFF));
  buf[3] = static_cast<char>((exponent & 0xFF) ^ (flip & 0xFF));
  for (int i = 0; i < 8; ++i)
    buf[4 + i] = static_cast<char>((fraction >> (56 - 8 * i)) & 0xFF);
  out.append(buf, sizeof buf);
}

/// A numeric cell without payload: the tag and the class byte.
void append_numeric_class(unsigned char cls, std::string& out) {
  const char buf[2] = {static_cast<char>(kTagNumeric), static_cast<char>(cls)};
  out.append(buf, sizeof buf);
}

[[noreturn]] void corrupt(const char* what, std::size_t pos) {
  throw InternalError(strf("norm key decode: %s at byte %zu", what, pos));
}

Value decode_numeric(const std::string& in, std::size_t& pos) {
  if (pos >= in.size()) corrupt("missing numeric class", pos);
  const unsigned char cls = static_cast<unsigned char>(in[pos++]);
  switch (cls) {
    case kNumNegInf: return Value{-std::numeric_limits<double>::infinity()};
    case kNumZero: return Value{std::int64_t{0}};
    case kNumPosInf: return Value{std::numeric_limits<double>::infinity()};
    case kNumNan: return Value{std::numeric_limits<double>::quiet_NaN()};
    case kNumNeg:
    case kNumPos: break;
    default: corrupt("bad numeric class", pos - 1);
  }
  if (pos + 10 > in.size()) corrupt("truncated numeric payload", pos);
  const bool negative = cls == kNumNeg;
  auto byte_at = [&](std::size_t i) {
    const auto b = static_cast<unsigned char>(in[pos + i]);
    return negative ? static_cast<unsigned char>(~b) : b;
  };
  const int exponent =
      static_cast<int>((byte_at(0) << 8) | byte_at(1)) - kExpBias;
  std::uint64_t fraction = 0;
  for (std::size_t i = 2; i < 10; ++i) fraction = (fraction << 8) | byte_at(i);
  pos += 10;

  // Integral values in int64 range decode as Int (the encoding cannot
  // distinguish Int 5 from Double 5.0 — they compare equal, so they
  // encode identically). Everything else decodes as Double.
  // Fraction bits at positions below 64-exponent carry weight < 1, so
  // the value is integral exactly when shifting them to the top leaves
  // nothing (exponent in [0, 63] makes the shift well defined).
  const bool integral =
      exponent >= 0 && exponent < 64 && (fraction << exponent) == 0;
  if (integral && (exponent < 63 || (negative && fraction == 0))) {
    std::uint64_t mag = std::uint64_t{1} << exponent;
    if (exponent > 0) mag |= fraction >> (64 - exponent);
    const std::int64_t i = negative ? -static_cast<std::int64_t>(mag - 1) - 1
                                    : static_cast<std::int64_t>(mag);
    return Value{i};
  }
  if (exponent < -1074 || exponent > 1023)
    corrupt("numeric exponent out of double range", pos - 10);
  const double m = 1.0 + static_cast<double>(fraction >> 12) * 0x1p-52;
  const double a = std::ldexp(m, exponent);
  return Value{negative ? -a : a};
}

Value decode_cell(const std::string& in, std::size_t& pos) {
  const unsigned char tag = static_cast<unsigned char>(in[pos++]);
  switch (tag) {
    case kTagNull:
      return Value::null();
    case kTagNumeric:
      return decode_numeric(in, pos);
    case kTagString: {
      std::string s;
      while (true) {
        if (pos >= in.size()) corrupt("unterminated string", pos);
        const unsigned char c = static_cast<unsigned char>(in[pos++]);
        if (c != 0x00) {
          s.push_back(static_cast<char>(c));
          continue;
        }
        if (pos >= in.size()) corrupt("truncated string escape", pos);
        const unsigned char e = static_cast<unsigned char>(in[pos++]);
        if (e == kStrEscape) {
          s.push_back('\0');
        } else if (e == kStrTerm) {
          break;
        } else {
          corrupt("bad string escape", pos - 1);
        }
      }
      return Value{std::move(s)};
    }
    default:
      corrupt("bad cell tag", pos - 1);
  }
}

}  // namespace

void append_norm_key_null(std::string& out) {
  prof::count(prof::kCellsEncoded);
  out.push_back(static_cast<char>(kTagNull));
}

void append_norm_key_int(std::int64_t i, std::string& out) {
  prof::count(prof::kCellsEncoded);
  if (i == 0) return append_numeric_class(kNumZero, out);
  const bool negative = i < 0;
  // 0 - u negates without overflowing on int64 min.
  const std::uint64_t u = static_cast<std::uint64_t>(i);
  const std::uint64_t mag = negative ? std::uint64_t{0} - u : u;
  append_numeric(negative, sci_from_int(mag), out);
}

void append_norm_key_double(double d, std::string& out) {
  prof::count(prof::kCellsEncoded);
  // compare_rows treats NaN as incomparable ("equal" to any numeric); the
  // encoding gives it a defined slot above +inf so the byte order stays
  // total. SQL expressions never produce NaN keys, so the difference is
  // unobservable in the engine.
  if (std::isnan(d)) return append_numeric_class(kNumNan, out);
  if (std::isinf(d))
    return append_numeric_class(d < 0 ? kNumNegInf : kNumPosInf, out);
  // +0.0 and -0.0 compare equal: one encoding.
  if (d == 0.0) return append_numeric_class(kNumZero, out);
  const bool negative = std::signbit(d);
  append_numeric(negative, sci_from_double(std::fabs(d)), out);
}

void append_norm_key_string(std::string_view s, std::string& out) {
  prof::count(prof::kCellsEncoded);
  out.push_back(static_cast<char>(kTagString));
  // Copy the runs between embedded NULs whole; each NUL gains its escape.
  for (std::size_t z = s.find('\0'); z != std::string_view::npos;
       z = s.find('\0')) {
    out.append(s.data(), z + 1);
    out.push_back(static_cast<char>(kStrEscape));
    s.remove_prefix(z + 1);
  }
  out.append(s);
  out.push_back('\0');
  out.push_back(static_cast<char>(kStrTerm));
}

void append_norm_key(const Value& v, std::string& out) {
  switch (v.type()) {
    case ValueType::Null: return append_norm_key_null(out);
    case ValueType::Int: return append_norm_key_int(v.as_int(), out);
    case ValueType::Double: return append_norm_key_double(v.as_double(), out);
    case ValueType::String: return append_norm_key_string(v.as_string(), out);
  }
  throw InternalError("append_norm_key: unknown value type");
}

std::string encode_norm_key(const Row& key) {
  prof::count(prof::kNormKeyEncodes);
  std::string out;
  // Typical keys are one or two short cells; one reservation covers the
  // common case without a second allocation (and usually stays SSO-free).
  out.reserve(key.size() * 12);
  for (const Value& v : key) append_norm_key(v, out);
  return out;
}

Row decode_norm_key(const std::string& in) {
  Row row;
  std::size_t pos = 0;
  while (pos < in.size()) {
    prof::count(prof::kCellsDecoded);
    row.push_back(decode_cell(in, pos));
  }
  return row;
}

}  // namespace ysmart
