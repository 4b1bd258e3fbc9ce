#ifndef FUNGUSDB_QUERY_PARSER_H_
#define FUNGUSDB_QUERY_PARSER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/query.h"

namespace fungusdb {

/// Parses one statement of the FungusDB dialect:
///
///   [CONSUME] SELECT <list> FROM <table>
///       [WHERE <expr>]
///       [GROUP BY <col> [, <col>...]]
///       [ORDER BY <col> [ASC | DESC]]
///       [LIMIT <n>]
///
/// <list> is `*` or comma-separated expressions with optional `AS`
/// aliases; aggregates are COUNT(*), COUNT(e), SUM(e), MIN(e), MAX(e),
/// AVG(e). Expressions support arithmetic, comparisons, AND/OR/NOT,
/// BETWEEN, IS [NOT] NULL, string/int/float/bool/null literals and the
/// system columns __ts and __freshness.
Result<Query> ParseQuery(std::string_view sql);

/// Parses a bare expression (useful for tests and tooling).
Result<ExprPtr> ParseExpression(std::string_view text);

/// Splits a script into `;`-separated statements (fungusql runs a
/// multi-statement line one statement at a time), respecting single-quoted string literals (a ';' inside '...' does
/// not split). Statements are trimmed and empty ones dropped, so a
/// trailing ';' yields no phantom statement. The views alias `script`.
std::vector<std::string_view> SplitStatements(std::string_view script);

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_PARSER_H_
