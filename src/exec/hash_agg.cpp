#include "exec/hash_agg.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/normkey.h"

namespace ysmart {

namespace {

std::uint64_t load8(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Folded 64x64->128-bit product: the mixing step of wyhash-style hashes.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

constexpr std::uint64_t kSeed0 = 0xA0761D6478BD642FULL;
constexpr std::uint64_t kSeed1 = 0xE7037ED1A0B428DBULL;

/// Hash of a key's bytes. Keys of up to 16 bytes (a numeric cell is 12)
/// take two overlapping loads and one multiply. The hash only places
/// keys in slots: group ids and the emission order never depend on it.
std::uint64_t hash_key(std::string_view key) {
  const char* p = key.data();
  std::size_t n = key.size();
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL ^ n;
  std::uint64_t a = 0, b = 0;
  if (n > 16) {
    for (; n > 16; p += 16, n -= 16)
      seed = mix(load8(p) ^ kSeed0, load8(p + 8) ^ seed);
    a = load8(p + n - 16);
    b = load8(p + n - 8);
  } else if (n >= 8) {
    a = load8(p);
    b = load8(p + n - 8);
  } else if (n > 0) {
    for (std::size_t i = 0; i < n; ++i)
      a = (a << 8) | static_cast<unsigned char>(p[i]);
  }
  return mix(a ^ kSeed0, b ^ seed ^ kSeed1);
}

/// Byte equality, without a library call for keys of 8 to 16 bytes.
bool same_key(std::string_view a, std::string_view b) {
  const std::size_t n = a.size();
  if (n != b.size()) return false;
  if (n >= 8 && n <= 16)
    return ((load8(a.data()) ^ load8(b.data())) |
            (load8(a.data() + n - 8) ^ load8(b.data() + n - 8))) == 0;
  return std::memcmp(a.data(), b.data(), n) == 0;
}

/// Null mask of a kernel result, or nullptr when it has no NULLs.
const unsigned char* nulls_of(const BatchVector& v) {
  using Rep = BatchVector::Rep;
  if (v.rep == Rep::IntCol || v.rep == Rep::DblCol || v.rep == Rep::StrCol)
    return v.col->null_data();
  return v.nulls.empty() ? nullptr : v.nulls.data();
}

/// Appends the encoding of element r of `v`, dispatching on the
/// representation (the same branch for every row of a batch).
void encode_cell(const BatchVector& v, const unsigned char* nulls,
                 std::size_t r, std::string& out) {
  using Rep = BatchVector::Rep;
  if (nulls && nulls[r]) return append_norm_key_null(out);
  switch (v.rep) {
    case Rep::AllNull: return append_norm_key_null(out);
    case Rep::Scalar: return append_norm_key(v.scalar, out);
    case Rep::IntCol: return append_norm_key_int(v.col->int_data()[r], out);
    case Rep::IntVec: return append_norm_key_int(v.ivec[r], out);
    case Rep::DblCol: return append_norm_key_double(v.col->double_data()[r], out);
    case Rep::DblVec: return append_norm_key_double(v.dvec[r], out);
    case Rep::StrCol: return append_norm_key_string(v.col->str_at(r), out);
  }
}

/// Feeds element r of `v` to states[gids[r] * stride] for r in [0, n),
/// in row order, through the typed adds: the states and counters of
/// add(v.value_at(r)) for each r.
void add_column(const BatchVector& v, std::size_t n, const std::uint32_t* gids,
                AggState* states, std::size_t stride) {
  using Rep = BatchVector::Rep;
  const unsigned char* nulls = nulls_of(v);
  auto each = [&](auto&& add) {
    for (std::size_t r = 0; r < n; ++r) {
      AggState& st = states[gids[r] * stride];
      if (nulls && nulls[r])
        st.add_null();
      else
        add(st, r);
    }
  };
  switch (v.rep) {
    case Rep::AllNull:
      each([](AggState& st, std::size_t) { st.add_null(); });
      return;
    case Rep::Scalar:
      switch (v.scalar.type()) {
        case ValueType::Int: {
          const std::int64_t x = v.scalar.as_int();
          each([x](AggState& st, std::size_t) { st.add_int(x); });
          return;
        }
        case ValueType::Double: {
          const double x = v.scalar.as_double();
          each([x](AggState& st, std::size_t) { st.add_double(x); });
          return;
        }
        default:
          each([&](AggState& st, std::size_t) { st.add(v.scalar); });
          return;
      }
    case Rep::IntCol:
    case Rep::IntVec: {
      const std::int64_t* d =
          v.rep == Rep::IntCol ? v.col->int_data() : v.ivec.data();
      each([d](AggState& st, std::size_t r) { st.add_int(d[r]); });
      return;
    }
    case Rep::DblCol:
    case Rep::DblVec: {
      const double* d =
          v.rep == Rep::DblCol ? v.col->double_data() : v.dvec.data();
      each([d](AggState& st, std::size_t r) { st.add_double(d[r]); });
      return;
    }
    case Rep::StrCol:
      each([&](AggState& st, std::size_t r) { st.add(Value{v.col->str_at(r)}); });
      return;
  }
}

}  // namespace

// ------------------------------ GroupTable ------------------------------

std::uint32_t GroupTable::find_or_insert(std::string_view key) {
  if (2 * (size() + 1) > slots_.size()) grow();
  const std::uint64_t h = hash_key(key);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = h & mask;; s = (s + 1) & mask) {
    const std::uint32_t slot = slots_[s];
    if (slot == 0) {
      const auto id = static_cast<std::uint32_t>(size());
      check(id != UINT32_MAX, "hash aggregation: too many groups");
      arena_.append(key);
      ends_.push_back(arena_.size());
      hashes_.push_back(h);
      slots_[s] = id + 1;
      return id;
    }
    if (hashes_[slot - 1] == h && same_key(this->key(slot - 1), key))
      return slot - 1;
  }
}

void GroupTable::grow() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 0; id < size(); ++id) {
    std::size_t s = hashes_[id] & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = id + 1;
  }
}

std::vector<std::uint32_t> GroupTable::ids_in_key_order() const {
  std::vector<std::uint32_t> ids(size());
  for (std::uint32_t id = 0; id < ids.size(); ++id) ids[id] = id;
  std::sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
    return norm_key_compare(key(a), key(b)) < 0;
  });
  return ids;
}

// ---------------------------- HashAggregator ----------------------------

HashAggregator::HashAggregator(const std::vector<BoundExpr>& group_exprs,
                               const std::vector<BoundExpr>& arg_exprs,
                               const std::vector<AggCall>& aggs)
    : group_exprs_(group_exprs), arg_exprs_(arg_exprs), aggs_(aggs) {
  check(arg_exprs_.size() == aggs_.size(),
        "hash aggregation: one argument expression per aggregate");
  const std::size_t ng = group_exprs_.size();
  group_vals_.resize(ng);
  group_ok_.resize(ng);
  group_nulls_.resize(ng);
  fallback_.resize(ng);
}

template <class KeyRow>
std::uint32_t HashAggregator::group_of(std::string_view key, KeyRow&& key_row) {
  const std::size_t before = table_.size();
  const std::uint32_t id = table_.find_or_insert(key);
  if (id == before) {
    keys_.push_back(key_row());
    for (const AggCall& a : aggs_) states_.emplace_back(a);
  }
  return id;
}

void HashAggregator::add_row(const Row& row) {
  key_row_.clear();
  key_bytes_.clear();
  for (const BoundExpr& g : group_exprs_) {
    key_row_.push_back(g.eval(row));
    append_norm_key(key_row_.back(), key_bytes_);
  }
  const std::uint32_t id = group_of(key_bytes_, [&] { return key_row_; });
  AggState* states = states_.data() + id * aggs_.size();
  for (std::size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].star)
      states[i].add_int(1);  // add(Value{1}) exactly
    else
      states[i].add(arg_exprs_[i].eval(row));
  }
}

void HashAggregator::resolve_groups(ColumnBatch& batch) {
  const std::size_t n = batch.rows();
  const std::size_t ng = group_exprs_.size();
  gids_.resize(n);
  for (std::size_t j = 0; j < ng; ++j) {
    group_ok_[j] = eval_expr_batch(group_exprs_[j], batch, group_vals_[j]);
    group_nulls_[j] = group_ok_[j] ? nulls_of(group_vals_[j]) : nullptr;
    if (group_ok_[j]) continue;
    std::vector<Value>& vals = fallback_[j];
    vals.clear();
    for (std::size_t r = 0; r < n; ++r)
      vals.push_back(group_exprs_[j].eval(batch.source_row(r)));
  }
  // Encode every key of the batch first, then probe: the probes then
  // read bytes written long before instead of the row's fresh stores.
  // The reservation fits n keys of numeric cells (12 bytes each).
  key_bytes_.clear();
  key_bytes_.reserve(n * ng * 12);
  key_ends_.clear();
  key_ends_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < ng; ++j) {
      if (group_ok_[j])
        encode_cell(group_vals_[j], group_nulls_[j], r, key_bytes_);
      else
        append_norm_key(fallback_[j][r], key_bytes_);
    }
    key_ends_.push_back(static_cast<std::uint32_t>(key_bytes_.size()));
  }
  const std::string_view keys(key_bytes_);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t begin = r == 0 ? 0 : key_ends_[r - 1];
    gids_[r] = group_of(keys.substr(begin, key_ends_[r] - begin), [&] {
      Row key;
      key.reserve(ng);
      for (std::size_t j = 0; j < ng; ++j)
        key.push_back(group_ok_[j] ? group_vals_[j].value_at(r)
                                   : fallback_[j][r]);
      return key;
    });
  }
}

void HashAggregator::add_batch(ColumnBatch& batch) {
  const std::size_t n = batch.rows();
  if (n == 0) return;
  resolve_groups(batch);
  const std::size_t stride = aggs_.size();
  for (std::size_t i = 0; i < aggs_.size(); ++i) {
    AggState* states = states_.data() + i;
    if (aggs_[i].star) {
      for (std::size_t r = 0; r < n; ++r) states[gids_[r] * stride].add_int(1);
    } else if (eval_expr_batch(arg_exprs_[i], batch, arg_)) {
      add_column(arg_, n, gids_.data(), states, stride);
    } else {
      for (std::size_t r = 0; r < n; ++r)
        states[gids_[r] * stride].add(arg_exprs_[i].eval(batch.source_row(r)));
    }
  }
}

}  // namespace ysmart
