#include "exec/expr_eval.h"

#include "common/error.h"
#include "common/prof_counters.h"

namespace ysmart {

namespace {

enum class Tri { False, True, Unknown };

Tri to_tri(const Value& v) {
  if (v.is_null()) return Tri::Unknown;
  return is_true(v) ? Tri::True : Tri::False;
}

Value from_tri(Tri t) {
  switch (t) {
    case Tri::False: return Value{std::int64_t{0}};
    case Tri::True: return Value{std::int64_t{1}};
    case Tri::Unknown: return Value::null();
  }
  return Value::null();
}

bool both_int(const Value& a, const Value& b) {
  return a.type() == ValueType::Int && b.type() == ValueType::Int;
}

}  // namespace

bool is_true(const Value& v) {
  switch (v.type()) {
    case ValueType::Null: return false;
    case ValueType::Int: return v.as_int() != 0;
    case ValueType::Double: return v.as_double() != 0;
    case ValueType::String: return !v.as_string().empty();
  }
  return false;
}

BoundExpr::BoundExpr(ExprPtr expr, const Schema& schema) : expr_(std::move(expr)) {
  check(expr_ != nullptr, "BoundExpr: null expression");
  root_ = compile(*expr_, schema);
}

BoundExpr::Node BoundExpr::compile(const Expr& e, const Schema& schema) {
  Node n;
  n.kind = e.kind;
  n.op = e.op;
  n.negated = e.negated;
  switch (e.kind) {
    case ExprKind::Literal:
      n.literal = e.literal;
      break;
    case ExprKind::ColumnRef:
      n.col_index = schema.index_of(e.column);
      break;
    case ExprKind::FuncCall:
      throw PlanError("function call not valid in a bound expression "
                      "(aggregates must be rewritten by the planner): " +
                      e.to_string());
    default:
      break;
  }
  for (const auto& a : e.args) n.args.push_back(compile(*a, schema));
  return n;
}

Value BoundExpr::eval(const Row& row) const {
  prof::count(prof::kRowsEvaluated);
  return eval_node(root_, row);
}

Value BoundExpr::eval_node(const Node& n, const Row& row) {
  switch (n.kind) {
    case ExprKind::Literal:
      return n.literal;
    case ExprKind::ColumnRef:
      return row.at(n.col_index);
    case ExprKind::IsNull: {
      const Value v = eval_node(n.args[0], row);
      const bool isnull = v.is_null();
      return Value{std::int64_t{(isnull != n.negated) ? 1 : 0}};
    }
    case ExprKind::Unary: {
      const Value v = eval_node(n.args[0], row);
      if (n.op == "not") {
        const Tri t = to_tri(v);
        if (t == Tri::Unknown) return Value::null();
        return from_tri(t == Tri::True ? Tri::False : Tri::True);
      }
      if (n.op == "-") {
        if (v.is_null()) return Value::null();
        if (v.type() == ValueType::Int) return Value{wrapping_neg(v.as_int())};
        return Value{-v.numeric()};
      }
      throw ExecError("unknown unary operator: " + n.op);
    }
    case ExprKind::Binary: {
      if (n.op == "and" || n.op == "or") {
        const Tri a = to_tri(eval_node(n.args[0], row));
        // Short circuit where the result is already determined.
        if (n.op == "and" && a == Tri::False) return from_tri(Tri::False);
        if (n.op == "or" && a == Tri::True) return from_tri(Tri::True);
        const Tri b = to_tri(eval_node(n.args[1], row));
        if (n.op == "and") {
          if (b == Tri::False) return from_tri(Tri::False);
          if (a == Tri::Unknown || b == Tri::Unknown) return Value::null();
          return from_tri(Tri::True);
        }
        if (b == Tri::True) return from_tri(Tri::True);
        if (a == Tri::Unknown || b == Tri::Unknown) return Value::null();
        return from_tri(Tri::False);
      }
      const Value a = eval_node(n.args[0], row);
      const Value b = eval_node(n.args[1], row);
      if (a.is_null() || b.is_null()) return Value::null();
      if (n.op == "+" || n.op == "-" || n.op == "*") {
        if (both_int(a, b)) {
          const std::int64_t x = a.as_int(), y = b.as_int();
          if (n.op == "+") return Value{wrapping_add(x, y)};
          if (n.op == "-") return Value{wrapping_sub(x, y)};
          return Value{wrapping_mul(x, y)};
        }
        const double x = a.numeric(), y = b.numeric();
        if (n.op == "+") return Value{x + y};
        if (n.op == "-") return Value{x - y};
        return Value{x * y};
      }
      if (n.op == "/") {
        const double y = b.numeric();
        if (y == 0) return Value::null();
        return Value{a.numeric() / y};
      }
      // Comparisons.
      const auto c = a.compare(b);
      bool r;
      if (n.op == "=") r = (c == 0);
      else if (n.op == "<>") r = (c != 0);
      else if (n.op == "<") r = (c < 0);
      else if (n.op == "<=") r = (c <= 0);
      else if (n.op == ">") r = (c > 0);
      else if (n.op == ">=") r = (c >= 0);
      else throw ExecError("unknown binary operator: " + n.op);
      return Value{std::int64_t{r ? 1 : 0}};
    }
    case ExprKind::FuncCall:
      throw ExecError("unexpected function call at eval time");
  }
  throw ExecError("unreachable expression kind");
}

std::vector<BoundExpr> bind_all(const std::vector<ExprPtr>& exprs,
                                const Schema& schema) {
  std::vector<BoundExpr> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.emplace_back(e, schema);
  return out;
}

}  // namespace ysmart
