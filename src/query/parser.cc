#include "query/parser.h"

#include <cstdlib>
#include <optional>

#include "common/string_util.h"
#include "query/lexer.h"

namespace fungusdb {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseStatement() {
    Query query;
    if (Peek().IsKeyword("CONSUME")) {
      query.consuming = true;
      Advance();
    }
    FUNGUSDB_RETURN_IF_ERROR(Expect("SELECT"));
    if (Peek().IsKeyword("DISTINCT")) {
      query.distinct = true;
      Advance();
    }

    // Select list.
    if (Peek().type == TokenType::kStar) {
      Advance();
    } else {
      while (true) {
        FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
        SelectItem item;
        item.expr = std::move(expr);
        if (Peek().IsKeyword("AS")) {
          Advance();
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected alias identifier after AS");
          }
          item.alias = Peek().text;
          Advance();
        }
        query.items.push_back(std::move(item));
        if (Peek().IsOperator(",")) {
          Advance();
          continue;
        }
        break;
      }
    }

    FUNGUSDB_RETURN_IF_ERROR(Expect("FROM"));
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected table name after FROM");
    }
    query.table_name = Peek().text;
    Advance();

    if (Peek().IsKeyword("WHERE")) {
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(query.where, ParseExpr());
    }

    if (Peek().IsKeyword("GROUP")) {
      Advance();
      FUNGUSDB_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected column name in GROUP BY");
        }
        query.group_by.push_back(Peek().text);
        Advance();
        if (Peek().IsOperator(",")) {
          Advance();
          continue;
        }
        break;
      }
    }

    if (Peek().IsKeyword("ORDER")) {
      Advance();
      FUNGUSDB_RETURN_IF_ERROR(Expect("BY"));
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected column name in ORDER BY");
      }
      OrderBy order;
      order.column = Peek().text;
      Advance();
      if (Peek().IsKeyword("DESC")) {
        order.descending = true;
        Advance();
      } else if (Peek().IsKeyword("ASC")) {
        Advance();
      }
      query.order_by = std::move(order);
    }

    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      if (Peek().type != TokenType::kInteger) {
        return Error("expected integer after LIMIT");
      }
      query.limit = ParseInteger<uint64_t>(Peek().text);
      if (!query.limit.has_value()) {
        return Error("LIMIT '" + Peek().text + "' out of range");
      }
      Advance();
    }

    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    return query;
  }

  Result<ExprPtr> ParseBareExpression() {
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at offset " +
                              std::to_string(Peek().offset) + ")");
  }

  Status Expect(std::string_view keyword) {
    if (!Peek().IsKeyword(keyword)) {
      return Error("expected " + std::string(keyword));
    }
    Advance();
    return Status::OK();
  }

  // Precedence climbing: OR < AND < NOT < comparison < add < mul < unary.
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Peek().IsKeyword("OR")) {
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Peek().IsKeyword("AND")) {
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

    if (Peek().IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (Peek().IsKeyword("NOT")) {
        negated = true;
        Advance();
      }
      FUNGUSDB_RETURN_IF_ERROR(Expect("NULL"));
      return Expr::Unary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                         std::move(lhs));
    }

    if (Peek().IsKeyword("BETWEEN")) {
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      FUNGUSDB_RETURN_IF_ERROR(Expect("AND"));
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      // a BETWEEN x AND y  ==>  a >= x AND a <= y
      ExprPtr ge = Expr::Binary(BinaryOp::kGe, lhs, std::move(lo));
      ExprPtr le =
          Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(hi));
      return Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le));
    }

    struct OpMap {
      const char* text;
      BinaryOp op;
    };
    constexpr OpMap kOps[] = {{"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe},
                              {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                              {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const OpMap& m : kOps) {
      if (Peek().IsOperator(m.text)) {
        Advance();
        FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Expr::Binary(m.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Peek().IsOperator("+") || Peek().IsOperator("-")) {
      const BinaryOp op =
          Peek().IsOperator("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Peek().type == TokenType::kStar || Peek().IsOperator("/") ||
           Peek().IsOperator("%")) {
      BinaryOp op = BinaryOp::kMul;
      if (Peek().IsOperator("/")) op = BinaryOp::kDiv;
      if (Peek().IsOperator("%")) op = BinaryOp::kMod;
      Advance();
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().IsOperator("-")) {
      Advance();
      // INT64_MIN has no positive literal to negate: read a minus and
      // the integer right after it as one literal when only the signed
      // text fits in int64. Every other `-` stays a negation.
      if (Peek().type == TokenType::kInteger &&
          !ParseInteger<int64_t>(Peek().text).has_value()) {
        const std::optional<int64_t> v =
            ParseInteger<int64_t>("-" + Peek().text);
        if (v.has_value()) {
          Advance();
          return Expr::Literal(Value::Int64(*v));
        }
      }
      FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger: {
        const std::optional<int64_t> v = ParseInteger<int64_t>(tok.text);
        if (!v.has_value()) {
          return Error("integer literal '" + tok.text + "' out of range");
        }
        Advance();
        return Expr::Literal(Value::Int64(*v));
      }
      case TokenType::kFloat: {
        const double v = std::strtod(tok.text.c_str(), nullptr);
        Advance();
        return Expr::Literal(Value::Float64(v));
      }
      case TokenType::kString: {
        ExprPtr e = Expr::Literal(Value::String(tok.text));
        Advance();
        return e;
      }
      case TokenType::kKeyword: {
        if (tok.text == "TRUE" || tok.text == "FALSE") {
          const bool v = tok.text == "TRUE";
          Advance();
          return Expr::Literal(Value::Bool(v));
        }
        if (tok.text == "NULL") {
          Advance();
          return Expr::Literal(Value::Null());
        }
        return Error("unexpected keyword '" + tok.text + "'");
      }
      case TokenType::kIdentifier: {
        const std::string name = tok.text;
        Advance();
        if (Peek().IsOperator("(")) {
          return ParseAggregateCall(name);
        }
        return Expr::Column(name);
      }
      case TokenType::kOperator:
        if (tok.IsOperator("(")) {
          Advance();
          FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          if (!Peek().IsOperator(")")) return Error("expected ')'");
          Advance();
          return inner;
        }
        return Error("unexpected operator '" + tok.text + "'");
      default:
        return Error("unexpected token '" + tok.text + "'");
    }
  }

  Result<ExprPtr> ParseAggregateCall(const std::string& name) {
    struct FnMap {
      const char* name;
      AggFn fn;
    };
    constexpr FnMap kFns[] = {{"count", AggFn::kCount},
                              {"sum", AggFn::kSum},
                              {"min", AggFn::kMin},
                              {"max", AggFn::kMax},
                              {"avg", AggFn::kAvg},
                              {"fcount", AggFn::kFCount},
                              {"fsum", AggFn::kFSum},
                              {"favg", AggFn::kFAvg}};
    const std::string lower = ToLower(name);
    const FnMap* found = nullptr;
    for (const FnMap& m : kFns) {
      if (lower == m.name) {
        found = &m;
        break;
      }
    }
    if (found == nullptr) {
      return ParseScalarCall(lower, name);
    }
    Advance();  // consume '('
    if (Peek().type == TokenType::kStar) {
      if (found->fn != AggFn::kCount && found->fn != AggFn::kFCount) {
        return Error("'*' argument is only valid for COUNT and FCOUNT");
      }
      Advance();
      if (!Peek().IsOperator(")")) return Error("expected ')'");
      Advance();
      return Expr::Aggregate(found->fn, nullptr);
    }
    FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    if (!Peek().IsOperator(")")) return Error("expected ')'");
    Advance();
    return Expr::Aggregate(found->fn, std::move(arg));
  }

  Result<ExprPtr> ParseScalarCall(const std::string& lower,
                                  const std::string& original) {
    struct FnMap {
      const char* name;
      ScalarFn fn;
    };
    constexpr FnMap kFns[] = {{"abs", ScalarFn::kAbs},
                              {"floor", ScalarFn::kFloor},
                              {"ceil", ScalarFn::kCeil},
                              {"round", ScalarFn::kRound},
                              {"length", ScalarFn::kLength},
                              {"lower", ScalarFn::kLower},
                              {"upper", ScalarFn::kUpper},
                              {"time_bucket", ScalarFn::kTimeBucket}};
    const FnMap* found = nullptr;
    for (const FnMap& m : kFns) {
      if (lower == m.name) {
        found = &m;
        break;
      }
    }
    if (found == nullptr) {
      return Error("unknown function '" + original + "'");
    }
    Advance();  // consume '('
    std::vector<ExprPtr> args;
    if (!Peek().IsOperator(")")) {
      while (true) {
        FUNGUSDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        args.push_back(std::move(arg));
        if (Peek().IsOperator(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (!Peek().IsOperator(")")) return Error("expected ')'");
    Advance();
    return Expr::Function(found->fn, std::move(args));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view sql) {
  FUNGUSDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  FUNGUSDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseBareExpression();
}

std::vector<std::string_view> SplitStatements(std::string_view script) {
  std::vector<std::string_view> statements;
  size_t start = 0;
  bool in_string = false;
  for (size_t i = 0; i <= script.size(); ++i) {
    const bool at_end = i == script.size();
    if (!at_end && script[i] == '\'') in_string = !in_string;
    if (!at_end && (script[i] != ';' || in_string)) continue;
    const std::string_view piece =
        StripWhitespace(script.substr(start, i - start));
    if (!piece.empty()) statements.push_back(piece);
    start = i + 1;
  }
  return statements;
}

}  // namespace fungusdb
