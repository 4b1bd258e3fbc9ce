#ifndef FUNGUSDB_CORE_META_COMMANDS_H_
#define FUNGUSDB_CORE_META_COMMANDS_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "query/classifier.h"
#include "query/query.h"
#include "query/result_set.h"
#include "storage/value.h"

namespace fungusdb {

/// One meta command split into words. `words[0]` is the command
/// (`\rot`); every view points into `text`, the trimmed statement.
struct MetaStatement {
  std::string_view text;
  std::vector<std::string_view> words;

  /// `text` from word `n` on (empty past the last word): the schema of
  /// `\create t (a int64)` is Rest(2).
  std::string_view Rest(size_t n) const;
};

/// Trims `statement` and splits it into words.
MetaStatement SplitMetaStatement(std::string_view statement);

/// `max_args` of a command whose trailing text is free-form.
inline constexpr size_t kAnyArgs = std::numeric_limits<size_t>::max();

/// One meta command: what `\help` lists, where the statement classifier
/// routes it, and what runs it. `Target` is what the handler acts on —
/// the Database for the registry below, the shell itself for
/// fungusql's own commands.
template <typename Target>
struct MetaCommandEntry {
  std::string_view name;     // "\\rot"
  std::string_view usage;    // "\\rot <table>"; also the usage error
  std::string_view summary;  // one line of \help
  /// Never mutates the database: fungusd's read workers may run it
  /// under one read lock, concurrently with other readers.
  bool read_only = false;
  /// Accepted word counts after the command; outside them the
  /// dispatcher answers "usage: <usage>" without calling the handler.
  size_t min_args = 0;
  size_t max_args = 0;
  Result<ResultSet> (*handler)(Target& target,
                               const MetaStatement& statement) = nullptr;
};

using MetaCommand = MetaCommandEntry<Database>;

/// Every database meta command, in `\help` order — the one table that
/// fungusql, fungusd, the statement classifier and `\help` derive from.
std::span<const MetaCommand> MetaCommands();

/// The entry in `table` named `name`, or nullptr.
template <typename Target>
const MetaCommandEntry<Target>* FindMetaCommand(
    std::span<const MetaCommandEntry<Target>> table, std::string_view name) {
  for (const MetaCommandEntry<Target>& entry : table) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

/// Checks the argument count, then runs the handler.
template <typename Target>
Result<ResultSet> RunMetaCommand(const MetaCommandEntry<Target>& command,
                                 Target& target,
                                 const MetaStatement& statement) {
  const size_t args = statement.words.size() - 1;
  if (args < command.min_args || args > command.max_args) {
    return Status::InvalidArgument("usage: " + std::string(command.usage));
  }
  return command.handler(target, statement);
}

/// Runs one statement of the wire dialect against `db`: a registry meta
/// command, or SQL through Database::ExecuteSql (the writer's total
/// order). An unknown meta command answers InvalidArgument.
Result<ResultSet> ExecuteStatement(Database& db, std::string_view statement);

/// Classifies one statement of the wire dialect: SQL text or a
/// `\`-prefixed meta command, which routes by its registry entry's
/// `read_only`. Conservative by construction — anything that is not a
/// provably read-only form (unknown meta commands and malformed SQL
/// included) is kMutating, so the writer executes it in total order and
/// owns its error text. When `parsed` is non-null and the statement is
/// SQL that parses, it receives the query, so the caller need not parse
/// it again.
StatementKind ClassifyStatement(std::string_view statement,
                                const ClassifyContext& context = {},
                                std::optional<Query>* parsed = nullptr);

/// `\insert <table> <csv fields>`, as views into the statement.
struct InsertStatement {
  std::string_view table;  // empty when the statement names no table
  std::string_view csv;    // empty when it has no fields: a usage error
};

/// Splits `statement` when it is an `\insert`; nullopt otherwise. The
/// one splitter behind the registry's `\insert` and fungusd's insert
/// runs: one scan, words split by ASCII whitespace, no allocation.
std::optional<InsertStatement> SplitInsert(std::string_view statement);

/// Parses an `\insert`'s row against `table`, the lookup of
/// `insert.table`; a missing table or missing fields is an error.
Result<std::vector<Value>> ParseInsertRow(const InsertStatement& insert,
                                          const Result<TableHandle>& table);

/// The column of an `\insert`'s answer.
inline constexpr std::string_view kRowIdColumn = "row_id";

/// The answer to one appended row: one `row_id` column. fungusd writes
/// the same bytes without building it (EncodeRowIdAnswer).
ResultSet RowIdResult(RowId row);

/// Meta-command output travels as an ordinary single-column ResultSet,
/// so the wire protocol has exactly one response shape.
ResultSet TextResult(std::string column, std::string text);

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_META_COMMANDS_H_
