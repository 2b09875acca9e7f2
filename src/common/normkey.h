// Normalized keys: an order-preserving binary encoding of Row keys.
//
// The shuffle path (partitioning, the partition sort, key grouping)
// compares keys millions of times per job. Walking a Row
// cell-by-cell through std::variant dispatch in Value::compare is the
// classic per-record overhead Hadoop eliminates with RawComparator and
// binary key types: encode each key ONCE into a byte string whose
// plain memcmp order is exactly the logical key order, then make every
// hot comparison a single memcmp.
//
// The encoding guarantees, for any two key Rows a and b:
//
//   sign(memcmp-order(encode(a), encode(b))) == sign(compare_rows(a, b))
//
// where memcmp-order is bytewise-unsigned comparison with the shorter
// string ordering first on a tie (std::string::compare semantics).
// Equal keys (including Int 5 vs Double 5.0, which compare_rows treats
// as equal) produce identical bytes, so byte equality is key equality.
//
// Layout (per cell, concatenated over the Row; see DESIGN.md
// "The serialized shuffle and normalized keys" for the ordering proof):
//
//   NULL     0x10
//   numeric  0x20 cls [exp[2] frac[8]]     (Int and Double interleaved)
//   string   0x30 escaped-bytes 0x00 0x01  (0x00 escaped as 0x00 0xFF)
//
// The numeric class byte walks the number line: -inf 0x00, negative
// 0x01, zero 0x02, positive 0x03, +inf 0x04, NaN 0x05. Nonzero finite
// values carry an exact binary-scientific payload — biased big-endian
// exponent, then the 64 left-aligned fraction bits below the leading 1
// — bit-inverted for negatives. Both int64 (up to 63 fraction bits)
// and double (up to 52) fit losslessly, so an int64 beyond 2^53 never
// collides with a nearby double the way a lossy cast would.
//
// The encoding lives only in the shuffle's in-memory map output
// (mr/shuffle.h): the wire format (Value::encode) and every byte counted
// by the cost model are untouched.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/value.h"

namespace ysmart {

/// Append the order-preserving encoding of one cell to `out`.
void append_norm_key(const Value& v, std::string& out);

/// Typed per-cell encoders: each appends exactly the bytes
/// append_norm_key appends for a Value of that type (it delegates to
/// them) and counts one kCellsEncoded. Batch kernels encode typed
/// columns through these without building a Value per cell.
void append_norm_key_null(std::string& out);
void append_norm_key_int(std::int64_t i, std::string& out);
void append_norm_key_double(double d, std::string& out);
void append_norm_key_string(std::string_view s, std::string& out);

/// Encode a whole key Row (cells concatenated; the per-cell encoding is
/// prefix-free, so bytewise order of the concatenation equals
/// compare_rows order, including the shorter-row-first rule).
std::string encode_norm_key(const Row& key);

/// Decode an encoded key back into a Row. The original Int-vs-Double
/// distinction is not recoverable for integral values (they encode
/// identically because they compare equal): integral numerics decode as
/// Int. The decoded row always compares equal to the original and
/// re-encodes to identical bytes. Throws Error on truncated or corrupt
/// input.
Row decode_norm_key(const std::string& in);

/// Bytewise-unsigned three-way comparison, i.e. memcmp over the common
/// prefix with the shorter string first on a tie. <0, 0, >0.
inline int norm_key_compare(std::string_view a, std::string_view b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  const int c = std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

/// Stable 64-bit FNV-1a over the encoded key bytes: the shuffle's
/// partition hash. Computed once per pair instead of re-hashing every
/// cell; consistent with key equality because equal keys encode to
/// identical bytes.
inline std::uint64_t norm_key_hash(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ysmart
