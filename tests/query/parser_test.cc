#include "query/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace fungusdb {
namespace {

TEST(ParserTest, SelectStar) {
  Query q = ParseQuery("SELECT * FROM readings").value();
  EXPECT_FALSE(q.consuming);
  EXPECT_TRUE(q.items.empty());
  EXPECT_EQ(q.table_name, "readings");
  EXPECT_EQ(q.where, nullptr);
}

TEST(ParserTest, ConsumePrefixSetsFlag) {
  Query q = ParseQuery("CONSUME SELECT * FROM r WHERE x > 1").value();
  EXPECT_TRUE(q.consuming);
  ASSERT_NE(q.where, nullptr);
}

TEST(ParserTest, SelectListWithAliases) {
  Query q = ParseQuery("SELECT a, b + 1 AS b1 FROM t").value();
  ASSERT_EQ(q.items.size(), 2u);
  EXPECT_EQ(q.items[0].expr->column_name(), "a");
  EXPECT_TRUE(q.items[0].alias.empty());
  EXPECT_EQ(q.items[1].alias, "b1");
  EXPECT_EQ(q.items[1].expr->kind(), Expr::Kind::kBinary);
}

TEST(ParserTest, WherePrecedence) {
  // AND binds tighter than OR.
  Query q = ParseQuery("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
                .value();
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->binary_op(), BinaryOp::kOr);
  EXPECT_EQ(q.where->child(1)->binary_op(), BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  ExprPtr e = ParseExpression("1 + 2 * 3").value();
  EXPECT_EQ(e->binary_op(), BinaryOp::kAdd);
  EXPECT_EQ(e->child(1)->binary_op(), BinaryOp::kMul);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  ExprPtr e = ParseExpression("(1 + 2) * 3").value();
  EXPECT_EQ(e->binary_op(), BinaryOp::kMul);
  EXPECT_EQ(e->child(0)->binary_op(), BinaryOp::kAdd);
}

TEST(ParserTest, BetweenDesugarsToAnd) {
  ExprPtr e = ParseExpression("x BETWEEN 1 AND 5").value();
  EXPECT_EQ(e->binary_op(), BinaryOp::kAnd);
  EXPECT_EQ(e->child(0)->binary_op(), BinaryOp::kGe);
  EXPECT_EQ(e->child(1)->binary_op(), BinaryOp::kLe);
}

TEST(ParserTest, IsNullForms) {
  EXPECT_EQ(ParseExpression("x IS NULL").value()->unary_op(),
            UnaryOp::kIsNull);
  EXPECT_EQ(ParseExpression("x IS NOT NULL").value()->unary_op(),
            UnaryOp::kIsNotNull);
}

TEST(ParserTest, NotAndUnaryMinus) {
  ExprPtr e = ParseExpression("NOT a = 1").value();
  EXPECT_EQ(e->unary_op(), UnaryOp::kNot);
  ExprPtr neg = ParseExpression("-5").value();
  EXPECT_EQ(neg->unary_op(), UnaryOp::kNeg);
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(ParseExpression("42").value()->literal().AsInt64(), 42);
  EXPECT_DOUBLE_EQ(ParseExpression("2.5").value()->literal().AsFloat64(),
                   2.5);
  EXPECT_EQ(ParseExpression("'abc'").value()->literal().AsString(), "abc");
  EXPECT_TRUE(ParseExpression("TRUE").value()->literal().AsBool());
  EXPECT_FALSE(ParseExpression("false").value()->literal().AsBool());
  EXPECT_TRUE(ParseExpression("NULL").value()->literal().is_null());
}

TEST(ParserTest, AggregateCalls) {
  Query q = ParseQuery(
                "SELECT count(*), sum(v), min(v), max(v), avg(v) FROM t")
                .value();
  ASSERT_EQ(q.items.size(), 5u);
  EXPECT_EQ(q.items[0].expr->agg_fn(), AggFn::kCount);
  EXPECT_TRUE(q.items[0].expr->agg_is_star());
  EXPECT_EQ(q.items[1].expr->agg_fn(), AggFn::kSum);
  EXPECT_FALSE(q.items[1].expr->agg_is_star());
  EXPECT_EQ(q.items[4].expr->agg_fn(), AggFn::kAvg);
}

TEST(ParserTest, StarOnlyValidForCount) {
  EXPECT_FALSE(ParseQuery("SELECT sum(*) FROM t").ok());
}

TEST(ParserTest, UnknownFunctionFails) {
  Result<Query> r = ParseQuery("SELECT median(x) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, GroupBy) {
  Query q =
      ParseQuery("SELECT a, count(*) FROM t GROUP BY a").value();
  ASSERT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.group_by[0], "a");
}

TEST(ParserTest, GroupByMultiple) {
  Query q = ParseQuery("SELECT a, b, count(*) FROM t GROUP BY a, b").value();
  ASSERT_EQ(q.group_by.size(), 2u);
}

TEST(ParserTest, OrderByDefaultsAscending) {
  Query q = ParseQuery("SELECT * FROM t ORDER BY x").value();
  ASSERT_TRUE(q.order_by.has_value());
  EXPECT_EQ(q.order_by->column, "x");
  EXPECT_FALSE(q.order_by->descending);
}

TEST(ParserTest, OrderByDesc) {
  Query q = ParseQuery("SELECT * FROM t ORDER BY x DESC").value();
  EXPECT_TRUE(q.order_by->descending);
}

TEST(ParserTest, Limit) {
  Query q = ParseQuery("SELECT * FROM t LIMIT 10").value();
  EXPECT_EQ(q.limit.value(), 10u);
}

TEST(ParserTest, LimitOverflowIsAParseError) {
  EXPECT_EQ(ParseQuery("SELECT * FROM t LIMIT 18446744073709551615")
                .value()
                .limit.value(),
            UINT64_MAX);
  const Result<Query> q =
      ParseQuery("SELECT * FROM t LIMIT 18446744073709551616");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, IntegerLiteralOverflowIsAParseError) {
  // INT64_MAX + 1 used to saturate silently to INT64_MAX.
  const Result<Query> q =
      ParseQuery("SELECT * FROM t WHERE a = 9223372036854775808");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("9223372036854775808"),
            std::string::npos);
  EXPECT_TRUE(
      ParseQuery("SELECT * FROM t WHERE a = 9223372036854775807").ok());
  EXPECT_FALSE(ParseExpression("99999999999999999999999 + 1").ok());
}

TEST(ParserTest, Int64MinLiteralParses) {
  // 9223372036854775808 alone overflows, so the minus in front of it is
  // part of the literal.
  const Result<Query> q =
      ParseQuery("SELECT * FROM t WHERE a > -9223372036854775808");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Expr& lit = *q->where->child(1);
  ASSERT_EQ(lit.kind(), Expr::Kind::kLiteral);
  EXPECT_TRUE(lit.literal().Equals(Value::Int64(INT64_MIN)));

  const Result<ExprPtr> below = ParseExpression("-9223372036854775809");
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(ParseExpression("a - 9223372036854775808").ok());
}

TEST(ParserTest, OtherMinusFormsParseAsBefore) {
  ExprPtr paren = ParseExpression("-(5)").value();
  EXPECT_EQ(paren->kind(), Expr::Kind::kUnary);
  EXPECT_EQ(paren->unary_op(), UnaryOp::kNeg);
  EXPECT_TRUE(paren->child(0)->literal().Equals(Value::Int64(5)));

  ExprPtr column = ParseExpression("- x").value();
  EXPECT_EQ(column->kind(), Expr::Kind::kUnary);
  EXPECT_EQ(column->unary_op(), UnaryOp::kNeg);
  EXPECT_EQ(column->child(0)->column_name(), "x");

  ExprPtr minus = ParseExpression("a - 5").value();
  EXPECT_EQ(minus->kind(), Expr::Kind::kBinary);
  EXPECT_EQ(minus->binary_op(), BinaryOp::kSub);
  EXPECT_TRUE(minus->child(1)->literal().Equals(Value::Int64(5)));

  ExprPtr small = ParseExpression("-5").value();
  EXPECT_EQ(small->unary_op(), UnaryOp::kNeg);
  EXPECT_TRUE(small->child(0)->literal().Equals(Value::Int64(5)));
}

TEST(ParserTest, FullClauseOrder) {
  Query q = ParseQuery(
                "CONSUME SELECT a, avg(v) AS m FROM t WHERE v > 0 "
                "GROUP BY a ORDER BY m DESC LIMIT 3")
                .value();
  EXPECT_TRUE(q.consuming);
  EXPECT_EQ(q.items.size(), 2u);
  EXPECT_NE(q.where, nullptr);
  EXPECT_EQ(q.group_by.size(), 1u);
  EXPECT_TRUE(q.order_by->descending);
  EXPECT_EQ(q.limit.value(), 3u);
}

TEST(ParserTest, SystemColumnsParseAsIdentifiers) {
  Query q =
      ParseQuery("SELECT __freshness FROM t WHERE __ts >= 100").value();
  EXPECT_EQ(q.items[0].expr->column_name(), "__freshness");
}

TEST(ParserTest, ErrorsCarryOffsets) {
  Result<Query> r = ParseQuery("SELECT FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM t extra").ok());
  EXPECT_FALSE(ParseExpression("1 + 2 3").ok());
}

TEST(ParserTest, MissingFromFails) {
  EXPECT_FALSE(ParseQuery("SELECT *").ok());
  EXPECT_FALSE(ParseQuery("SELECT a, b").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* sql =
      "CONSUME SELECT a AS x FROM t WHERE (a > 1) GROUP BY a "
      "ORDER BY x ASC LIMIT 5";
  Query q1 = ParseQuery(sql).value();
  Query q2 = ParseQuery(q1.ToString()).value();
  EXPECT_EQ(q1.ToString(), q2.ToString());
}

TEST(SplitStatementsTest, SplitsOnSemicolons) {
  const auto statements =
      SplitStatements("SELECT a FROM t; SELECT b FROM u;SELECT c FROM v");
  ASSERT_EQ(statements.size(), 3u);
  EXPECT_EQ(statements[0], "SELECT a FROM t");
  EXPECT_EQ(statements[1], "SELECT b FROM u");
  EXPECT_EQ(statements[2], "SELECT c FROM v");
}

TEST(SplitStatementsTest, IgnoresSemicolonsInsideStringLiterals) {
  const auto statements =
      SplitStatements("SELECT a FROM t WHERE s = 'x;y'; SELECT 1");
  ASSERT_EQ(statements.size(), 2u);
  EXPECT_EQ(statements[0], "SELECT a FROM t WHERE s = 'x;y'");
}

TEST(SplitStatementsTest, DropsEmptyFragments) {
  EXPECT_TRUE(SplitStatements("").empty());
  EXPECT_TRUE(SplitStatements(" ;; ; ").empty());
  const auto statements = SplitStatements(";SELECT 1;");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0], "SELECT 1");
}

}  // namespace
}  // namespace fungusdb
