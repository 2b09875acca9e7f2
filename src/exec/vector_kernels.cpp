#include "exec/vector_kernels.h"

#include <algorithm>
#include <optional>

#include "common/prof_counters.h"
#include "exec/aggregates.h"

namespace ysmart {

namespace {

using Node = BoundExpr::Node;
using Rep = BatchVector::Rep;

// ---------------------------- operand views ----------------------------

/// Uniform accessor over a numeric operand: a typed column, a computed
/// typed vector, or a broadcast scalar (stride 0). Each operand is
/// uniformly Int64 or Double, so kernels dispatch once per node.
struct NumView {
  bool is_int = false;
  std::size_t stride = 0;  // 0 = scalar broadcast
  const std::int64_t* idata = nullptr;
  const double* ddata = nullptr;
  std::int64_t iscalar = 0;
  double dscalar = 0;
  const unsigned char* nulls = nullptr;

  std::int64_t geti(std::size_t k) const { return stride ? idata[k] : iscalar; }
  double getd(std::size_t k) const { return stride ? ddata[k] : dscalar; }
  double num(std::size_t k) const {
    return is_int ? static_cast<double>(geti(k)) : getd(k);
  }
  bool null(std::size_t k) const { return nulls && nulls[k]; }
};

bool num_view(const BatchVector& v, NumView& out) {
  switch (v.rep) {
    case Rep::IntCol:
      out.is_int = true;
      out.stride = 1;
      out.idata = v.col->int_data();
      out.nulls = v.col->null_data();
      return true;
    case Rep::DblCol:
      out.stride = 1;
      out.ddata = v.col->double_data();
      out.nulls = v.col->null_data();
      return true;
    case Rep::IntVec:
      out.is_int = true;
      out.stride = 1;
      out.idata = v.ivec.data();
      out.nulls = v.nulls.empty() ? nullptr : v.nulls.data();
      return true;
    case Rep::DblVec:
      out.stride = 1;
      out.ddata = v.dvec.data();
      out.nulls = v.nulls.empty() ? nullptr : v.nulls.data();
      return true;
    case Rep::Scalar:
      if (v.scalar.type() == ValueType::Int) {
        out.is_int = true;
        out.iscalar = v.scalar.as_int();
        return true;
      }
      if (v.scalar.type() == ValueType::Double) {
        out.dscalar = v.scalar.as_double();
        return true;
      }
      return false;
    default:
      return false;
  }
}

struct StrView {
  std::size_t stride = 0;  // 0 = scalar broadcast
  const std::string* const* data = nullptr;
  const std::string* scalar = nullptr;
  const unsigned char* nulls = nullptr;

  const std::string& get(std::size_t k) const {
    return stride ? *data[k] : *scalar;
  }
  bool null(std::size_t k) const { return nulls && nulls[k]; }
};

bool str_view(const BatchVector& v, StrView& out) {
  if (v.rep == Rep::StrCol) {
    out.stride = 1;
    out.data = v.col->str_data();
    out.nulls = v.col->null_data();
    return true;
  }
  if (v.rep == Rep::Scalar && v.scalar.type() == ValueType::String) {
    out.scalar = &v.scalar.as_string();
    return true;
  }
  return false;
}

// ----------------------------- mask helpers -----------------------------

template <typename ViewA, typename ViewB>
void union_nulls(const ViewA& a, const ViewB& b, std::size_t n,
                 std::vector<unsigned char>& out) {
  if (!a.nulls && !b.nulls) return;  // leave empty: no NULLs
  out.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k)
    if (a.null(k) || b.null(k)) out[k] = 1;
}

/// Whether any element of `v` can be NULL (O(1), conservative exact).
bool maybe_null(const BatchVector& v) {
  switch (v.rep) {
    case Rep::AllNull: return true;
    case Rep::Scalar: return false;
    case Rep::IntCol:
    case Rep::DblCol:
    case Rep::StrCol: return v.col->has_nulls();
    case Rep::IntVec:
    case Rep::DblVec: return !v.nulls.empty();
  }
  return true;
}

/// Kleene truth value per element: 0 = false, 1 = true, 2 = unknown.
void fill_tri(const BatchVector& v, std::size_t n,
              std::vector<unsigned char>& out) {
  out.resize(n);
  switch (v.rep) {
    case Rep::AllNull:
      std::fill(out.begin(), out.end(), static_cast<unsigned char>(2));
      return;
    case Rep::Scalar: {
      const unsigned char t = is_true(v.scalar) ? 1 : 0;
      std::fill(out.begin(), out.end(), t);
      return;
    }
    case Rep::IntCol: {
      const std::int64_t* d = v.col->int_data();
      const unsigned char* nu = v.col->null_data();
      for (std::size_t k = 0; k < n; ++k)
        out[k] = (nu && nu[k]) ? 2 : (d[k] != 0 ? 1 : 0);
      return;
    }
    case Rep::DblCol: {
      const double* d = v.col->double_data();
      const unsigned char* nu = v.col->null_data();
      for (std::size_t k = 0; k < n; ++k)
        out[k] = (nu && nu[k]) ? 2 : (d[k] != 0 ? 1 : 0);
      return;
    }
    case Rep::StrCol: {
      const unsigned char* nu = v.col->null_data();
      for (std::size_t k = 0; k < n; ++k)
        out[k] = (nu && nu[k]) ? 2 : (!v.col->str_at(k).empty() ? 1 : 0);
      return;
    }
    case Rep::IntVec: {
      const unsigned char* nu = v.nulls.empty() ? nullptr : v.nulls.data();
      for (std::size_t k = 0; k < n; ++k)
        out[k] = (nu && nu[k]) ? 2 : (v.ivec[k] != 0 ? 1 : 0);
      return;
    }
    case Rep::DblVec: {
      const unsigned char* nu = v.nulls.empty() ? nullptr : v.nulls.data();
      for (std::size_t k = 0; k < n; ++k)
        out[k] = (nu && nu[k]) ? 2 : (v.dvec[k] != 0 ? 1 : 0);
      return;
    }
  }
}

void fill_nullmask(const BatchVector& v, std::size_t n,
                   std::vector<unsigned char>& out) {
  out.assign(n, 0);
  switch (v.rep) {
    case Rep::AllNull:
      std::fill(out.begin(), out.end(), static_cast<unsigned char>(1));
      return;
    case Rep::Scalar:
      return;  // Scalar is never NULL (NULL literals are AllNull)
    case Rep::IntCol:
    case Rep::DblCol:
    case Rep::StrCol: {
      const unsigned char* nu = v.col->null_data();
      if (nu) std::copy(nu, nu + n, out.begin());
      return;
    }
    case Rep::IntVec:
    case Rep::DblVec:
      if (!v.nulls.empty()) std::copy(v.nulls.begin(), v.nulls.end(), out.begin());
      return;
  }
}

// ------------------------------- kernels -------------------------------

enum class Cmp { Eq, Ne, Lt, Le, Gt, Ge, None };

Cmp cmp_of(const std::string& op) {
  if (op == "=") return Cmp::Eq;
  if (op == "<>") return Cmp::Ne;
  if (op == "<") return Cmp::Lt;
  if (op == "<=") return Cmp::Le;
  if (op == ">") return Cmp::Gt;
  if (op == ">=") return Cmp::Ge;
  return Cmp::None;
}

inline std::int64_t cmp_result(Cmp op, int c) {
  switch (op) {
    case Cmp::Eq: return c == 0;
    case Cmp::Ne: return c != 0;
    case Cmp::Lt: return c < 0;
    case Cmp::Le: return c <= 0;
    case Cmp::Gt: return c > 0;
    case Cmp::Ge: return c >= 0;
    case Cmp::None: break;
  }
  return 0;
}

inline int sign_of(std::strong_ordering o) {
  if (o == std::strong_ordering::less) return -1;
  if (o == std::strong_ordering::greater) return 1;
  return 0;
}

std::optional<BatchVector> eval_node_batch(const Node& nd, ColumnBatch& batch,
                                           std::size_t n);

/// AND/OR under Kleene three-valued logic. The scalar path short-circuits
/// the right branch when the left already decides; evaluating both here
/// is value-identical (Kleene logic is monotone in Unknown) — only a
/// branch that *throws* can tell the difference, which the top-level
/// catch turns into a row-path fallback.
std::optional<BatchVector> kleene_kernel(const Node& nd, ColumnBatch& batch,
                                         std::size_t n) {
  auto a = eval_node_batch(nd.args[0], batch, n);
  if (!a) return std::nullopt;
  auto b = eval_node_batch(nd.args[1], batch, n);
  if (!b) return std::nullopt;
  const bool is_and = nd.op == "and";
  // Fast path: no NULL on either side collapses Kleene logic to plain
  // two-valued AND/OR. When the left operand is already a computed
  // IntVec (the usual output of a comparison) its storage is reused for
  // the result, so the common filter shape `a < x and b >= y` runs one
  // fused loop with no allocation.
  if (!maybe_null(*a) && !maybe_null(*b)) {
    if (a->rep == Rep::IntVec && b->rep == Rep::IntVec) {
      BatchVector fused = std::move(*a);
      const std::int64_t* bd = b->ivec.data();
      std::int64_t* ad = fused.ivec.data();
      if (is_and)
        for (std::size_t k = 0; k < n; ++k)
          ad[k] = (ad[k] != 0) && (bd[k] != 0);
      else
        for (std::size_t k = 0; k < n; ++k)
          ad[k] = (ad[k] != 0) || (bd[k] != 0);
      return fused;
    }
    std::vector<unsigned char> ta, tb;
    fill_tri(*a, n, ta);
    fill_tri(*b, n, tb);
    BatchVector flat;
    flat.rep = Rep::IntVec;
    flat.ivec.resize(n);
    if (is_and)
      for (std::size_t k = 0; k < n; ++k) flat.ivec[k] = ta[k] & tb[k];
    else
      for (std::size_t k = 0; k < n; ++k) flat.ivec[k] = ta[k] | tb[k];
    return flat;
  }
  std::vector<unsigned char> ta, tb;
  fill_tri(*a, n, ta);
  fill_tri(*b, n, tb);
  BatchVector out;
  out.rep = Rep::IntVec;
  out.ivec.resize(n);
  out.nulls.assign(n, 0);
  bool any_null = false;
  for (std::size_t k = 0; k < n; ++k) {
    unsigned char r;
    if (is_and)
      r = (ta[k] == 0 || tb[k] == 0) ? 0 : (ta[k] == 1 && tb[k] == 1) ? 1 : 2;
    else
      r = (ta[k] == 1 || tb[k] == 1) ? 1 : (ta[k] == 0 && tb[k] == 0) ? 0 : 2;
    if (r == 2) {
      out.ivec[k] = 0;
      out.nulls[k] = 1;
      any_null = true;
    } else {
      out.ivec[k] = r;
    }
  }
  if (!any_null) out.nulls.clear();
  return out;
}

std::optional<BatchVector> arith_kernel(const Node& nd, const BatchVector& av,
                                        const BatchVector& bv, std::size_t n) {
  NumView a, b;
  if (!num_view(av, a) || !num_view(bv, b)) return std::nullopt;
  const char op = nd.op[0];
  BatchVector out;
  if (op == '/') {
    // SQL-ish division: always double, divide-by-zero yields NULL.
    out.rep = Rep::DblVec;
    out.dvec.resize(n);
    out.nulls.assign(n, 0);
    bool any_null = false;
    for (std::size_t k = 0; k < n; ++k) {
      if (a.null(k) || b.null(k)) {
        out.nulls[k] = 1;
        any_null = true;
        out.dvec[k] = 0;
        continue;
      }
      const double y = b.num(k);
      if (y == 0) {
        out.nulls[k] = 1;
        any_null = true;
        out.dvec[k] = 0;
      } else {
        out.dvec[k] = a.num(k) / y;
      }
    }
    if (!any_null) out.nulls.clear();
    return out;
  }
  if (a.is_int && b.is_int) {
    out.rep = Rep::IntVec;
    out.ivec.resize(n);
    union_nulls(a, b, n, out.nulls);
    switch (op) {
      case '+':
        for (std::size_t k = 0; k < n; ++k)
          out.ivec[k] = wrapping_add(a.geti(k), b.geti(k));
        break;
      case '-':
        for (std::size_t k = 0; k < n; ++k)
          out.ivec[k] = wrapping_sub(a.geti(k), b.geti(k));
        break;
      default:
        for (std::size_t k = 0; k < n; ++k)
          out.ivec[k] = wrapping_mul(a.geti(k), b.geti(k));
        break;
    }
    return out;
  }
  out.rep = Rep::DblVec;
  out.dvec.resize(n);
  union_nulls(a, b, n, out.nulls);
  switch (op) {
    case '+':
      for (std::size_t k = 0; k < n; ++k) out.dvec[k] = a.num(k) + b.num(k);
      break;
    case '-':
      for (std::size_t k = 0; k < n; ++k) out.dvec[k] = a.num(k) - b.num(k);
      break;
    default:
      for (std::size_t k = 0; k < n; ++k) out.dvec[k] = a.num(k) * b.num(k);
      break;
  }
  return out;
}

std::optional<BatchVector> compare_kernel(Cmp cmp, const BatchVector& av,
                                          const BatchVector& bv,
                                          std::size_t n) {
  BatchVector out;
  out.rep = Rep::IntVec;
  out.ivec.resize(n);

  NumView na, nb;
  StrView sa, sb;
  const bool a_num = num_view(av, na), b_num = num_view(bv, nb);
  const bool a_str = !a_num && str_view(av, sa);
  const bool b_str = !b_num && str_view(bv, sb);

  if (a_num && b_num) {
    union_nulls(na, nb, n, out.nulls);
    if (na.is_int && nb.is_int) {
      // The operator is hoisted out of the loop: each body is a single
      // branch-free comparison instead of a per-element cmp_result switch.
      auto loop = [&](auto pred) {
        for (std::size_t k = 0; k < n; ++k)
          out.ivec[k] = pred(na.geti(k), nb.geti(k));
      };
      using I = std::int64_t;
      switch (cmp) {
        case Cmp::Eq: loop([](I x, I y) { return x == y; }); break;
        case Cmp::Ne: loop([](I x, I y) { return x != y; }); break;
        case Cmp::Lt: loop([](I x, I y) { return x < y; }); break;
        case Cmp::Le: loop([](I x, I y) { return x <= y; }); break;
        case Cmp::Gt: loop([](I x, I y) { return x > y; }); break;
        case Cmp::Ge: loop([](I x, I y) { return x >= y; }); break;
        case Cmp::None: break;
      }
    } else if (!na.is_int && !nb.is_int) {
      // Double/double: NaN compares "equal" to anything (Value::compare),
      // i.e. the three-way result is 0 — hence the negated forms rather
      // than the direct <= / >= / == operators, which are false on NaN.
      auto loop = [&](auto pred) {
        for (std::size_t k = 0; k < n; ++k)
          out.ivec[k] = pred(na.getd(k), nb.getd(k));
      };
      switch (cmp) {
        case Cmp::Eq: loop([](double x, double y) { return !(x < y) && !(x > y); }); break;
        case Cmp::Ne: loop([](double x, double y) { return x < y || x > y; }); break;
        case Cmp::Lt: loop([](double x, double y) { return x < y; }); break;
        case Cmp::Le: loop([](double x, double y) { return !(x > y); }); break;
        case Cmp::Gt: loop([](double x, double y) { return x > y; }); break;
        case Cmp::Ge: loop([](double x, double y) { return !(x < y); }); break;
        case Cmp::None: break;
      }
    } else if (na.is_int) {
      for (std::size_t k = 0; k < n; ++k)
        out.ivec[k] = cmp_result(
            cmp, sign_of(compare_int_double(na.geti(k), nb.getd(k))));
    } else {
      for (std::size_t k = 0; k < n; ++k)
        out.ivec[k] = cmp_result(
            cmp, -sign_of(compare_int_double(nb.geti(k), na.getd(k))));
    }
    return out;
  }
  if (a_str && b_str) {
    union_nulls(sa, sb, n, out.nulls);
    for (std::size_t k = 0; k < n; ++k) {
      const int c = sa.get(k).compare(sb.get(k));
      out.ivec[k] = cmp_result(cmp, c < 0 ? -1 : (c > 0 ? 1 : 0));
    }
    return out;
  }
  // Cross-rank: numeric sorts before string (Value::compare rank order),
  // so the three-way result is a constant.
  if (a_num && b_str) {
    union_nulls(na, sb, n, out.nulls);
    const std::int64_t r = cmp_result(cmp, -1);
    std::fill(out.ivec.begin(), out.ivec.end(), r);
    return out;
  }
  if (a_str && b_num) {
    union_nulls(sa, nb, n, out.nulls);
    const std::int64_t r = cmp_result(cmp, 1);
    std::fill(out.ivec.begin(), out.ivec.end(), r);
    return out;
  }
  return std::nullopt;
}

std::optional<BatchVector> eval_node_batch(const Node& nd, ColumnBatch& batch,
                                           std::size_t n) {
  switch (nd.kind) {
    case ExprKind::Literal: {
      BatchVector out;
      if (nd.literal.is_null()) return out;  // AllNull
      out.rep = Rep::Scalar;
      out.scalar = nd.literal;
      return out;
    }
    case ExprKind::ColumnRef: {
      if (nd.col_index >= batch.columns()) return std::nullopt;
      const ColumnVector& col = batch.column(nd.col_index);
      BatchVector out;
      switch (col.type()) {
        case ColType::Null: return out;  // AllNull
        case ColType::Int64: out.rep = Rep::IntCol; break;
        case ColType::Double: out.rep = Rep::DblCol; break;
        case ColType::String: out.rep = Rep::StrCol; break;
        case ColType::Mixed: return std::nullopt;
      }
      out.col = &col;
      return out;
    }
    case ExprKind::IsNull: {
      auto arg = eval_node_batch(nd.args[0], batch, n);
      if (!arg) return std::nullopt;
      std::vector<unsigned char> mask;
      fill_nullmask(*arg, n, mask);
      BatchVector out;
      out.rep = Rep::IntVec;
      out.ivec.resize(n);
      for (std::size_t k = 0; k < n; ++k)
        out.ivec[k] = ((mask[k] != 0) != nd.negated) ? 1 : 0;
      return out;
    }
    case ExprKind::Unary: {
      auto arg = eval_node_batch(nd.args[0], batch, n);
      if (!arg) return std::nullopt;
      if (nd.op == "not") {
        std::vector<unsigned char> tri;
        fill_tri(*arg, n, tri);
        BatchVector out;
        out.rep = Rep::IntVec;
        out.ivec.resize(n);
        out.nulls.assign(n, 0);
        bool any_null = false;
        for (std::size_t k = 0; k < n; ++k) {
          if (tri[k] == 2) {
            out.nulls[k] = 1;
            any_null = true;
            out.ivec[k] = 0;
          } else {
            out.ivec[k] = tri[k] == 0 ? 1 : 0;
          }
        }
        if (!any_null) out.nulls.clear();
        return out;
      }
      if (nd.op == "-") {
        if (arg->rep == Rep::AllNull) return arg;
        NumView a;
        if (!num_view(*arg, a)) return std::nullopt;
        BatchVector out;
        if (a.is_int) {
          out.rep = Rep::IntVec;
          out.ivec.resize(n);
          for (std::size_t k = 0; k < n; ++k)
            out.ivec[k] = wrapping_neg(a.geti(k));
        } else {
          out.rep = Rep::DblVec;
          out.dvec.resize(n);
          for (std::size_t k = 0; k < n; ++k) out.dvec[k] = -a.getd(k);
        }
        if (a.nulls) out.nulls.assign(a.nulls, a.nulls + n);
        return out;
      }
      return std::nullopt;  // unknown unary op: row path throws
    }
    case ExprKind::Binary: {
      if (nd.op == "and" || nd.op == "or") return kleene_kernel(nd, batch, n);
      auto a = eval_node_batch(nd.args[0], batch, n);
      if (!a) return std::nullopt;
      auto b = eval_node_batch(nd.args[1], batch, n);
      if (!b) return std::nullopt;
      // NULL propagates through arithmetic and comparisons before the
      // operator dispatch, exactly as the scalar path orders it.
      if (a->rep == Rep::AllNull || b->rep == Rep::AllNull)
        return BatchVector{};  // AllNull
      if (nd.op == "+" || nd.op == "-" || nd.op == "*" || nd.op == "/")
        return arith_kernel(nd, *a, *b, n);
      const Cmp cmp = cmp_of(nd.op);
      if (cmp == Cmp::None) return std::nullopt;  // row path throws
      return compare_kernel(cmp, *a, *b, n);
    }
    case ExprKind::FuncCall:
      return std::nullopt;  // row path throws
  }
  return std::nullopt;
}

}  // namespace

// --------------------------- BatchVector API ---------------------------

bool BatchVector::is_null(std::size_t i) const {
  switch (rep) {
    case Rep::AllNull: return true;
    case Rep::Scalar: return false;
    case Rep::IntCol:
    case Rep::DblCol:
    case Rep::StrCol: return col->is_null(i);
    case Rep::IntVec:
    case Rep::DblVec: return !nulls.empty() && nulls[i];
  }
  return false;
}

bool BatchVector::truthy(std::size_t i) const {
  switch (rep) {
    case Rep::AllNull: return false;
    case Rep::Scalar: return is_true(scalar);
    case Rep::IntCol: return !col->is_null(i) && col->int_data()[i] != 0;
    case Rep::DblCol: return !col->is_null(i) && col->double_data()[i] != 0;
    case Rep::StrCol: return !col->is_null(i) && !col->str_at(i).empty();
    case Rep::IntVec: return (nulls.empty() || !nulls[i]) && ivec[i] != 0;
    case Rep::DblVec: return (nulls.empty() || !nulls[i]) && dvec[i] != 0;
  }
  return false;
}

Value BatchVector::value_at(std::size_t i) const {
  switch (rep) {
    case Rep::AllNull: return Value::null();
    case Rep::Scalar: return scalar;
    case Rep::IntCol:
    case Rep::DblCol:
    case Rep::StrCol: return col->value_at(i);
    case Rep::IntVec:
      if (!nulls.empty() && nulls[i]) return Value::null();
      return Value{ivec[i]};
    case Rep::DblVec:
      if (!nulls.empty() && nulls[i]) return Value::null();
      return Value{dvec[i]};
  }
  return Value::null();
}

bool eval_expr_batch(const BoundExpr& expr, ColumnBatch& batch,
                     BatchVector& out) {
  if (!expr.valid() || !batch.regular()) return false;
  const std::size_t n = batch.rows();
  try {
    auto r = eval_node_batch(expr.root(), batch, n);
    if (!r) return false;
    out = std::move(*r);
  } catch (...) {
    // A batch kernel evaluated a branch the scalar path's short-circuit
    // would have skipped, and it threw. Fall back: the per-row path
    // reproduces scalar behaviour exactly (including the throw, if it
    // happens on a row the scalar path really evaluates).
    return false;
  }
  prof::count(prof::kRowsEvaluated, static_cast<std::uint64_t>(n));
  return true;
}

void collect_passing(const BatchVector& v, std::size_t n,
                     std::vector<std::uint32_t>& sel) {
  switch (v.rep) {
    case Rep::AllNull:
      return;
    case Rep::Scalar:
      if (is_true(v.scalar))
        for (std::size_t k = 0; k < n; ++k)
          sel.push_back(static_cast<std::uint32_t>(k));
      return;
    case Rep::IntCol: {
      const std::int64_t* d = v.col->int_data();
      const unsigned char* nu = v.col->null_data();
      for (std::size_t k = 0; k < n; ++k)
        if ((!nu || !nu[k]) && d[k] != 0)
          sel.push_back(static_cast<std::uint32_t>(k));
      return;
    }
    case Rep::DblCol: {
      const double* d = v.col->double_data();
      const unsigned char* nu = v.col->null_data();
      for (std::size_t k = 0; k < n; ++k)
        if ((!nu || !nu[k]) && d[k] != 0)
          sel.push_back(static_cast<std::uint32_t>(k));
      return;
    }
    case Rep::StrCol: {
      const unsigned char* nu = v.col->null_data();
      for (std::size_t k = 0; k < n; ++k)
        if ((!nu || !nu[k]) && !v.col->str_at(k).empty())
          sel.push_back(static_cast<std::uint32_t>(k));
      return;
    }
    case Rep::IntVec: {
      const unsigned char* nu = v.nulls.empty() ? nullptr : v.nulls.data();
      for (std::size_t k = 0; k < n; ++k)
        if ((!nu || !nu[k]) && v.ivec[k] != 0)
          sel.push_back(static_cast<std::uint32_t>(k));
      return;
    }
    case Rep::DblVec: {
      const unsigned char* nu = v.nulls.empty() ? nullptr : v.nulls.data();
      for (std::size_t k = 0; k < n; ++k)
        if ((!nu || !nu[k]) && v.dvec[k] != 0)
          sel.push_back(static_cast<std::uint32_t>(k));
      return;
    }
  }
}

void add_to_agg(AggState& st, const BatchVector& v, std::size_t i) {
  switch (v.rep) {
    case Rep::AllNull:
      st.add_null();
      return;
    case Rep::Scalar:
      switch (v.scalar.type()) {
        case ValueType::Int: st.add_int(v.scalar.as_int()); return;
        case ValueType::Double: st.add_double(v.scalar.as_double()); return;
        default: st.add(v.scalar); return;
      }
    case Rep::IntCol:
      if (v.col->is_null(i))
        st.add_null();
      else
        st.add_int(v.col->int_data()[i]);
      return;
    case Rep::DblCol:
      if (v.col->is_null(i))
        st.add_null();
      else
        st.add_double(v.col->double_data()[i]);
      return;
    case Rep::StrCol:
      if (v.col->is_null(i))
        st.add_null();
      else
        st.add(Value{v.col->str_at(i)});
      return;
    case Rep::IntVec:
      if (!v.nulls.empty() && v.nulls[i])
        st.add_null();
      else
        st.add_int(v.ivec[i]);
      return;
    case Rep::DblVec:
      if (!v.nulls.empty() && v.nulls[i])
        st.add_null();
      else
        st.add_double(v.dvec[i]);
      return;
  }
}

}  // namespace ysmart
