#include "reference_walker.h"

#include <cctype>
#include <cmath>
#include <vector>

namespace fungusdb::reference {
namespace {

int64_t AsInt(const Value& v) {
  return v.type() == DataType::kTimestamp ? v.AsTimestamp() : v.AsInt64();
}

// Two's-complement arithmetic, computed in uint64.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

Result<Value> EvalBinary(const BoundExpr& expr, const Value& lhs,
                         const Value& rhs) {
  const BinaryOp op = expr.binary_op;
  switch (op) {
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      // Three-valued logic.
      auto truth = [](const Value& v) -> int {
        return v.is_null() ? -1 : (v.AsBool() ? 1 : 0);
      };
      const int a = truth(lhs);
      const int b = truth(rhs);
      if (op == BinaryOp::kAnd) {
        if (a == 0 || b == 0) return Value::Bool(false);
        if (a == -1 || b == -1) return Value::Null();
        return Value::Bool(true);
      }
      if (a == 1 || b == 1) return Value::Bool(true);
      if (a == -1 || b == -1) return Value::Null();
      return Value::Bool(false);
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      FUNGUSDB_ASSIGN_OR_RETURN(int cmp, lhs.Compare(rhs));
      switch (op) {
        case BinaryOp::kEq:
          return Value::Bool(cmp == 0);
        case BinaryOp::kNe:
          return Value::Bool(cmp != 0);
        case BinaryOp::kLt:
          return Value::Bool(cmp < 0);
        case BinaryOp::kLe:
          return Value::Bool(cmp <= 0);
        case BinaryOp::kGt:
          return Value::Bool(cmp > 0);
        default:
          return Value::Bool(cmp >= 0);
      }
    }
    default:
      break;
  }

  // Arithmetic.
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == BinaryOp::kMod) {
    const int64_t divisor = AsInt(rhs);
    const int64_t dividend = AsInt(lhs);
    if (divisor == 0) return Status::InvalidArgument("modulo by zero");
    if (divisor == -1) return Value::Int64(0);
    return Value::Int64(dividend % divisor);
  }
  if (expr.result_type == DataType::kInt64) {
    // Wrapping integer arithmetic (division is typed float64 by the
    // binder).
    const uint64_t a = static_cast<uint64_t>(AsInt(lhs));
    const uint64_t b = static_cast<uint64_t>(AsInt(rhs));
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(Wrap(a + b));
      case BinaryOp::kSub:
        return Value::Int64(Wrap(a - b));
      case BinaryOp::kMul:
        return Value::Int64(Wrap(a * b));
      default:
        return Status::Internal("unexpected integer binary op");
    }
  }
  FUNGUSDB_ASSIGN_OR_RETURN(double a, lhs.ToDouble());
  FUNGUSDB_ASSIGN_OR_RETURN(double b, rhs.ToDouble());
  double result = 0.0;
  switch (op) {
    case BinaryOp::kAdd:
      result = a + b;
      break;
    case BinaryOp::kSub:
      result = a - b;
      break;
    case BinaryOp::kMul:
      result = a * b;
      break;
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      result = a / b;
      break;
    default:
      return Status::Internal("unexpected binary op");
  }
  return Value::Float64(result);
}

}  // namespace

Result<Value> EvalScalar(const BoundExpr& expr, const Table& table,
                         RowId row) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef:
      switch (expr.col_source) {
        case ColumnSource::kTimestamp: {
          FUNGUSDB_ASSIGN_OR_RETURN(Timestamp t, table.InsertTime(row));
          return Value::TimestampVal(t);
        }
        case ColumnSource::kFreshness:
          return Value::Float64(table.Freshness(row));
        case ColumnSource::kUser:
          return table.GetValue(row, expr.col_index);
      }
      return Status::Internal("unhandled column source");
    case Expr::Kind::kBinary: {
      // Short-circuit AND/OR where one side already decides the result.
      if (expr.binary_op == BinaryOp::kAnd ||
          expr.binary_op == BinaryOp::kOr) {
        FUNGUSDB_ASSIGN_OR_RETURN(Value lhs,
                                  EvalScalar(expr.children[0], table, row));
        if (!lhs.is_null()) {
          const bool decided = expr.binary_op == BinaryOp::kAnd
                                   ? !lhs.AsBool()
                                   : lhs.AsBool();
          if (decided) return lhs;
        }
        FUNGUSDB_ASSIGN_OR_RETURN(Value rhs,
                                  EvalScalar(expr.children[1], table, row));
        return EvalBinary(expr, lhs, rhs);
      }
      FUNGUSDB_ASSIGN_OR_RETURN(Value lhs,
                                EvalScalar(expr.children[0], table, row));
      FUNGUSDB_ASSIGN_OR_RETURN(Value rhs,
                                EvalScalar(expr.children[1], table, row));
      return EvalBinary(expr, lhs, rhs);
    }
    case Expr::Kind::kUnary: {
      FUNGUSDB_ASSIGN_OR_RETURN(Value operand,
                                EvalScalar(expr.children[0], table, row));
      switch (expr.unary_op) {
        case UnaryOp::kNot:
          if (operand.is_null()) return Value::Null();
          return Value::Bool(!operand.AsBool());
        case UnaryOp::kNeg: {
          if (operand.is_null()) return Value::Null();
          if (operand.type() == DataType::kFloat64) {
            return Value::Float64(-operand.AsFloat64());
          }
          return Value::Int64(Wrap(0 - static_cast<uint64_t>(AsInt(operand))));
        }
        case UnaryOp::kIsNull:
          return Value::Bool(operand.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!operand.is_null());
      }
      return Status::Internal("unhandled unary op");
    }
    case Expr::Kind::kFunction: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const BoundExpr& child : expr.children) {
        FUNGUSDB_ASSIGN_OR_RETURN(Value v, EvalScalar(child, table, row));
        if (v.is_null()) return Value::Null();  // strict null propagation
        args.push_back(std::move(v));
      }
      switch (expr.scalar_fn) {
        case ScalarFn::kAbs:
          if (args[0].type() == DataType::kFloat64) {
            return Value::Float64(std::fabs(args[0].AsFloat64()));
          }
          if (AsInt(args[0]) < 0) {
            return Value::Int64(
                Wrap(0 - static_cast<uint64_t>(AsInt(args[0]))));
          }
          return Value::Int64(AsInt(args[0]));
        case ScalarFn::kFloor: {
          FUNGUSDB_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
          return Value::Float64(std::floor(d));
        }
        case ScalarFn::kCeil: {
          FUNGUSDB_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
          return Value::Float64(std::ceil(d));
        }
        case ScalarFn::kRound: {
          FUNGUSDB_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
          return Value::Float64(std::round(d));
        }
        case ScalarFn::kLength:
          return Value::Int64(
              static_cast<int64_t>(args[0].AsString().size()));
        case ScalarFn::kLower: {
          std::string s = args[0].AsString();
          for (char& c : s) {
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
          }
          return Value::String(std::move(s));
        }
        case ScalarFn::kUpper: {
          std::string s = args[0].AsString();
          for (char& c : s) {
            c = static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
          }
          return Value::String(std::move(s));
        }
        case ScalarFn::kTimeBucket: {
          const int64_t ts = AsInt(args[0]);
          const int64_t width = AsInt(args[1]);
          if (width <= 0) {
            return Status::InvalidArgument(
                "time_bucket width must be positive");
          }
          // Floor division so negative timestamps bucket consistently.
          int64_t bucket = ts / width;
          if (ts % width != 0 && ts < 0) --bucket;
          return Value::TimestampVal(Wrap(static_cast<uint64_t>(bucket) *
                                          static_cast<uint64_t>(width)));
        }
      }
      return Status::Internal("unhandled scalar function");
    }
    case Expr::Kind::kAggregate:
      return Status::Internal(
          "aggregate expression reached the scalar evaluator");
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const BoundExpr& expr, const Table& table,
                           RowId row) {
  FUNGUSDB_ASSIGN_OR_RETURN(Value v, EvalScalar(expr, table, row));
  return !v.is_null() && v.AsBool();
}

}  // namespace fungusdb::reference
