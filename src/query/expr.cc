#include "query/expr.h"

namespace fungusdb {

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
  }
  return "?";
}

std::string_view UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot:
      return "NOT";
    case UnaryOp::kNeg:
      return "-";
    case UnaryOp::kIsNull:
      return "IS NULL";
    case UnaryOp::kIsNotNull:
      return "IS NOT NULL";
  }
  return "?";
}

std::string_view AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kFCount:
      return "FCOUNT";
    case AggFn::kFSum:
      return "FSUM";
    case AggFn::kFAvg:
      return "FAVG";
  }
  return "?";
}

ExprPtr Expr::Literal(Value value) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLiteral));
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kColumnRef));
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kBinary));
  e->binary_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kUnary));
  e->unary_op_ = op;
  e->children_ = {std::move(operand)};
  return e;
}

std::string_view ScalarFnName(ScalarFn fn) {
  switch (fn) {
    case ScalarFn::kAbs:
      return "abs";
    case ScalarFn::kFloor:
      return "floor";
    case ScalarFn::kCeil:
      return "ceil";
    case ScalarFn::kRound:
      return "round";
    case ScalarFn::kLength:
      return "length";
    case ScalarFn::kLower:
      return "lower";
    case ScalarFn::kUpper:
      return "upper";
    case ScalarFn::kTimeBucket:
      return "time_bucket";
  }
  return "?";
}

ExprPtr Expr::Function(ScalarFn fn, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kFunction));
  e->scalar_fn_ = fn;
  e->children_ = std::move(args);
  return e;
}

ExprPtr Expr::Aggregate(AggFn fn, ExprPtr arg) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAggregate));
  e->agg_fn_ = fn;
  if (arg != nullptr) e->children_ = {std::move(arg)};
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind_ == Kind::kAggregate) return true;
  for (const ExprPtr& c : children_) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kColumnRef:
      return column_name_;
    case Kind::kBinary:
      return "(" + children_[0]->ToString() + " " +
             std::string(BinaryOpName(binary_op_)) + " " +
             children_[1]->ToString() + ")";
    case Kind::kUnary:
      if (unary_op_ == UnaryOp::kIsNull ||
          unary_op_ == UnaryOp::kIsNotNull) {
        return "(" + children_[0]->ToString() + " " +
               std::string(UnaryOpName(unary_op_)) + ")";
      }
      return "(" + std::string(UnaryOpName(unary_op_)) + " " +
             children_[0]->ToString() + ")";
    case Kind::kAggregate:
      return std::string(AggFnName(agg_fn_)) + "(" +
             (agg_is_star() ? "*" : children_[0]->ToString()) + ")";
    case Kind::kFunction: {
      std::string out(ScalarFnName(scalar_fn_));
      out += "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->ToString();
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }
ExprPtr Lit(double v) { return Expr::Literal(Value::Float64(v)); }
ExprPtr Lit(const char* v) { return Expr::Literal(Value::String(v)); }
ExprPtr Lit(std::string v) {
  return Expr::Literal(Value::String(std::move(v)));
}
ExprPtr Lit(bool v) { return Expr::Literal(Value::Bool(v)); }
ExprPtr LitNull() { return Expr::Literal(Value::Null()); }
ExprPtr Col(std::string name) { return Expr::Column(std::move(name)); }

ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kNe, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr Le(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(rhs));
}
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kGt, std::move(lhs), std::move(rhs));
}
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kGe, std::move(lhs), std::move(rhs));
}
ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
}
ExprPtr Add(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kAdd, std::move(lhs), std::move(rhs));
}
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs) {
  return Expr::Binary(BinaryOp::kMul, std::move(lhs), std::move(rhs));
}
ExprPtr Not(ExprPtr operand) {
  return Expr::Unary(UnaryOp::kNot, std::move(operand));
}
ExprPtr IsNull(ExprPtr operand) {
  return Expr::Unary(UnaryOp::kIsNull, std::move(operand));
}
ExprPtr IsNotNull(ExprPtr operand) {
  return Expr::Unary(UnaryOp::kIsNotNull, std::move(operand));
}

}  // namespace fungusdb
