#include "query/binder.h"

namespace fungusdb {
namespace {

bool TypeIsNumeric(const std::optional<DataType>& t) {
  return !t.has_value() || IsNumeric(*t);
}

std::string TypeName(const std::optional<DataType>& t) {
  return t.has_value() ? std::string(DataTypeName(*t)) : "null";
}

Result<BoundExpr> BindImpl(const Expr& expr, const Schema& schema,
                           bool inside_aggregate) {
  BoundExpr out;
  out.kind = expr.kind();
  switch (expr.kind()) {
    case Expr::Kind::kLiteral: {
      out.literal = expr.literal();
      if (!out.literal.is_null()) out.result_type = out.literal.type();
      return out;
    }
    case Expr::Kind::kColumnRef: {
      const std::string& name = expr.column_name();
      out.col_name = name;
      if (name == kTimestampColumnName) {
        out.col_source = ColumnSource::kTimestamp;
        out.result_type = DataType::kTimestamp;
        return out;
      }
      if (name == kFreshnessColumnName) {
        out.col_source = ColumnSource::kFreshness;
        out.result_type = DataType::kFloat64;
        return out;
      }
      std::optional<size_t> idx = schema.FindField(name);
      if (!idx.has_value()) {
        return Status::ColumnNotFound("no column named '" + name + "'");
      }
      out.col_source = ColumnSource::kUser;
      out.col_index = *idx;
      out.result_type = schema.field(*idx).type;
      return out;
    }
    case Expr::Kind::kBinary: {
      FUNGUSDB_ASSIGN_OR_RETURN(
          BoundExpr lhs, BindImpl(*expr.child(0), schema, inside_aggregate));
      FUNGUSDB_ASSIGN_OR_RETURN(
          BoundExpr rhs, BindImpl(*expr.child(1), schema, inside_aggregate));
      const BinaryOp op = expr.binary_op();
      out.binary_op = op;
      if (IsComparison(op)) {
        const bool comparable =
            !lhs.result_type.has_value() || !rhs.result_type.has_value() ||
            lhs.result_type == rhs.result_type ||
            (IsNumeric(*lhs.result_type) && IsNumeric(*rhs.result_type));
        if (!comparable) {
          return Status::TypeMismatch("cannot compare " +
                                      TypeName(lhs.result_type) + " with " +
                                      TypeName(rhs.result_type));
        }
        out.result_type = DataType::kBool;
      } else if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        auto check = [&](const BoundExpr& side) -> Status {
          if (side.result_type.has_value() &&
              side.result_type != DataType::kBool) {
            return Status::TypeMismatch(
                std::string(BinaryOpName(op)) + " requires bool operands, got " +
                TypeName(side.result_type));
          }
          return Status::OK();
        };
        FUNGUSDB_RETURN_IF_ERROR(check(lhs));
        FUNGUSDB_RETURN_IF_ERROR(check(rhs));
        out.result_type = DataType::kBool;
      } else {
        // Arithmetic.
        if (!TypeIsNumeric(lhs.result_type) ||
            !TypeIsNumeric(rhs.result_type)) {
          return Status::TypeMismatch(
              "arithmetic requires numeric operands, got " +
              TypeName(lhs.result_type) + " and " + TypeName(rhs.result_type));
        }
        if (op == BinaryOp::kMod) {
          const bool both_integral =
              (!lhs.result_type.has_value() ||
               *lhs.result_type != DataType::kFloat64) &&
              (!rhs.result_type.has_value() ||
               *rhs.result_type != DataType::kFloat64);
          if (!both_integral) {
            return Status::TypeMismatch("% requires integer operands");
          }
          out.result_type = DataType::kInt64;
        } else if ((lhs.result_type.has_value() &&
                    *lhs.result_type == DataType::kFloat64) ||
                   (rhs.result_type.has_value() &&
                    *rhs.result_type == DataType::kFloat64) ||
                   op == BinaryOp::kDiv) {
          out.result_type = DataType::kFloat64;
        } else {
          out.result_type = DataType::kInt64;
        }
      }
      out.children.push_back(std::move(lhs));
      out.children.push_back(std::move(rhs));
      return out;
    }
    case Expr::Kind::kUnary: {
      FUNGUSDB_ASSIGN_OR_RETURN(
          BoundExpr operand,
          BindImpl(*expr.child(0), schema, inside_aggregate));
      const UnaryOp op = expr.unary_op();
      out.unary_op = op;
      switch (op) {
        case UnaryOp::kNot:
          if (operand.result_type.has_value() &&
              operand.result_type != DataType::kBool) {
            return Status::TypeMismatch("NOT requires a bool operand, got " +
                                        TypeName(operand.result_type));
          }
          out.result_type = DataType::kBool;
          break;
        case UnaryOp::kNeg:
          if (!TypeIsNumeric(operand.result_type)) {
            return Status::TypeMismatch("unary - requires a numeric operand");
          }
          out.result_type = operand.result_type.has_value()
                                ? *operand.result_type
                                : DataType::kInt64;
          if (out.result_type == DataType::kTimestamp) {
            out.result_type = DataType::kInt64;
          }
          // Fold -<literal> into a plain literal so the zone-map pruner
          // and the vectorized kernel see negative constants; the same
          // arithmetic as Operand's unary minus: float64 negates, int64
          // and timestamp negate exactly into int64, wrapping at
          // INT64_MIN.
          if (operand.kind == Expr::Kind::kLiteral) {
            out.kind = Expr::Kind::kLiteral;
            const Value& v = operand.literal;
            if (v.is_null()) {
              out.literal = Value::Null();
              out.result_type = std::nullopt;
            } else if (v.type() == DataType::kFloat64) {
              out.literal = Value::Float64(-v.AsFloat64());
            } else {
              const int64_t x = v.type() == DataType::kTimestamp
                                    ? v.AsTimestamp()
                                    : v.AsInt64();
              out.literal = Value::Int64(
                  static_cast<int64_t>(0 - static_cast<uint64_t>(x)));
            }
            return out;
          }
          break;
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          out.result_type = DataType::kBool;
          break;
      }
      out.children.push_back(std::move(operand));
      return out;
    }
    case Expr::Kind::kFunction: {
      out.scalar_fn = expr.scalar_fn();
      std::vector<BoundExpr> args;
      for (const ExprPtr& child : expr.children()) {
        FUNGUSDB_ASSIGN_OR_RETURN(
            BoundExpr arg, BindImpl(*child, schema, inside_aggregate));
        args.push_back(std::move(arg));
      }
      auto arity = [&](size_t n) -> Status {
        if (args.size() != n) {
          return Status::InvalidArgument(
              std::string(ScalarFnName(out.scalar_fn)) + " takes " +
              std::to_string(n) + " argument(s), got " +
              std::to_string(args.size()));
        }
        return Status::OK();
      };
      auto require_numeric = [&](size_t i) -> Status {
        if (!TypeIsNumeric(args[i].result_type)) {
          return Status::TypeMismatch(
              std::string(ScalarFnName(out.scalar_fn)) +
              " requires a numeric argument");
        }
        return Status::OK();
      };
      auto require_string = [&](size_t i) -> Status {
        if (args[i].result_type.has_value() &&
            *args[i].result_type != DataType::kString) {
          return Status::TypeMismatch(
              std::string(ScalarFnName(out.scalar_fn)) +
              " requires a string argument");
        }
        return Status::OK();
      };
      switch (out.scalar_fn) {
        case ScalarFn::kAbs:
          FUNGUSDB_RETURN_IF_ERROR(arity(1));
          FUNGUSDB_RETURN_IF_ERROR(require_numeric(0));
          out.result_type =
              args[0].result_type.value_or(DataType::kInt64);
          if (out.result_type == DataType::kTimestamp) {
            out.result_type = DataType::kInt64;
          }
          break;
        case ScalarFn::kFloor:
        case ScalarFn::kCeil:
        case ScalarFn::kRound:
          FUNGUSDB_RETURN_IF_ERROR(arity(1));
          FUNGUSDB_RETURN_IF_ERROR(require_numeric(0));
          out.result_type = DataType::kFloat64;
          break;
        case ScalarFn::kLength:
          FUNGUSDB_RETURN_IF_ERROR(arity(1));
          FUNGUSDB_RETURN_IF_ERROR(require_string(0));
          out.result_type = DataType::kInt64;
          break;
        case ScalarFn::kLower:
        case ScalarFn::kUpper:
          FUNGUSDB_RETURN_IF_ERROR(arity(1));
          FUNGUSDB_RETURN_IF_ERROR(require_string(0));
          out.result_type = DataType::kString;
          break;
        case ScalarFn::kTimeBucket:
          FUNGUSDB_RETURN_IF_ERROR(arity(2));
          FUNGUSDB_RETURN_IF_ERROR(require_numeric(0));
          FUNGUSDB_RETURN_IF_ERROR(require_numeric(1));
          if (args[0].result_type == DataType::kFloat64) {
            return Status::TypeMismatch(
                "time_bucket requires a timestamp or int64 time");
          }
          if (args[1].result_type == DataType::kFloat64) {
            return Status::TypeMismatch(
                "time_bucket width must be an integer duration in "
                "microseconds");
          }
          out.result_type = DataType::kTimestamp;
          break;
      }
      out.children = std::move(args);
      return out;
    }
    case Expr::Kind::kAggregate: {
      if (inside_aggregate) {
        return Status::InvalidArgument("aggregates cannot be nested");
      }
      out.agg_fn = expr.agg_fn();
      if (!expr.agg_is_star()) {
        FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr arg,
                                  BindImpl(*expr.child(0), schema, true));
        switch (out.agg_fn) {
          case AggFn::kCount:
            out.result_type = DataType::kInt64;
            break;
          case AggFn::kFCount:
            out.result_type = DataType::kFloat64;
            break;
          case AggFn::kFSum:
          case AggFn::kFAvg:
            if (!TypeIsNumeric(arg.result_type)) {
              return Status::TypeMismatch(
                  std::string(AggFnName(out.agg_fn)) +
                  " requires a numeric argument");
            }
            out.result_type = DataType::kFloat64;
            break;
          case AggFn::kSum:
            if (!TypeIsNumeric(arg.result_type)) {
              return Status::TypeMismatch("SUM requires a numeric argument");
            }
            out.result_type = (arg.result_type.has_value() &&
                               *arg.result_type == DataType::kFloat64)
                                  ? DataType::kFloat64
                                  : DataType::kInt64;
            break;
          case AggFn::kAvg:
            if (!TypeIsNumeric(arg.result_type)) {
              return Status::TypeMismatch("AVG requires a numeric argument");
            }
            out.result_type = DataType::kFloat64;
            break;
          case AggFn::kMin:
          case AggFn::kMax:
            out.result_type = arg.result_type.has_value()
                                  ? *arg.result_type
                                  : DataType::kInt64;
            break;
        }
        out.children.push_back(std::move(arg));
      } else {
        if (out.agg_fn != AggFn::kCount && out.agg_fn != AggFn::kFCount) {
          return Status::InvalidArgument(
              "'*' argument is only valid for COUNT and FCOUNT");
        }
        out.result_type = out.agg_fn == AggFn::kCount ? DataType::kInt64
                                                      : DataType::kFloat64;
      }
      return out;
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

Result<BoundExpr> Bind(const Expr& expr, const Schema& schema) {
  return BindImpl(expr, schema, false);
}

}  // namespace fungusdb
