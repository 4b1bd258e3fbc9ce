#include "query/classifier.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/meta_commands.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

TEST(ClassifierTest, PlainSelectIsReadOnly) {
  EXPECT_EQ(ClassifyStatement("SELECT * FROM t"), StatementKind::kReadOnly);
  EXPECT_EQ(ClassifyStatement("  SELECT a, b FROM t WHERE a > 1  "),
            StatementKind::kReadOnly);
  EXPECT_EQ(ClassifyStatement(
                "SELECT sensor, count(*) AS n FROM t GROUP BY sensor "
                "ORDER BY sensor LIMIT 3"),
            StatementKind::kReadOnly);
  EXPECT_EQ(ClassifyStatement(
                "SELECT a FROM t WHERE __freshness < 0.5"),
            StatementKind::kReadOnly);
}

TEST(ClassifierTest, ConsumingFormsAreMutating) {
  // The second natural law: a consuming query removes every answered
  // tuple from R — that is a write however it is spelled.
  EXPECT_EQ(ClassifyStatement("CONSUME SELECT * FROM t"),
            StatementKind::kMutating);
  EXPECT_EQ(ClassifyStatement("  consume select a from t where a = 1"),
            StatementKind::kMutating);
}

TEST(ClassifierTest, NonSelectSqlTextIsMutating) {
  // None of these parse as a plain SELECT; whether the dialect supports
  // them or not, they belong to the writer (which owns error text).
  for (const char* text : {
           "INSERT INTO t VALUES (1)",
           "CREATE TABLE t (a int64)",
           "DROP TABLE t",
           "SELECT a FROM t INTO u",
           "DELETE FROM t",
           "UPDATE t SET a = 1",
       }) {
    EXPECT_EQ(ClassifyStatement(text), StatementKind::kMutating) << text;
  }
}

TEST(ClassifierTest, MalformedAndEmptyStatementsAreMutating) {
  EXPECT_EQ(ClassifyStatement(""), StatementKind::kMutating);
  EXPECT_EQ(ClassifyStatement("   "), StatementKind::kMutating);
  EXPECT_EQ(ClassifyStatement("SELEC * FORM t"), StatementKind::kMutating);
  EXPECT_EQ(ClassifyStatement("SELECT FROM"), StatementKind::kMutating);
}

TEST(ClassifierTest, ReadOnlyMetaCommands) {
  for (const char* meta :
       {"\\health", "\\now", "\\metrics", "\\tables", "\\rot", "\\fsck",
        "\\trace", "\\storage", "\\analyze", "\\cellar"}) {
    ASSERT_NE(FindMetaCommand(MetaCommands(), meta), nullptr) << meta;
    EXPECT_TRUE(FindMetaCommand(MetaCommands(), meta)->read_only) << meta;
    EXPECT_EQ(ClassifyStatement(meta), StatementKind::kReadOnly) << meta;
  }
  // Arguments don't change the classification of the command token.
  EXPECT_EQ(ClassifyStatement("\\metrics prom"), StatementKind::kReadOnly);
  EXPECT_EQ(ClassifyStatement("\\rot t"), StatementKind::kReadOnly);
  EXPECT_EQ(ClassifyStatement("\\trace dump"), StatementKind::kReadOnly);
}

TEST(ClassifierTest, MutatingAndUnknownMetaCommands) {
  for (const char* meta :
       {"\\advance 1h", "\\create t (a int64)", "\\insert t 1",
        "\\attach retention t 1h 2d", "\\slowlog 100", "\\freeze t 2",
        "\\nosuchcommand"}) {
    EXPECT_EQ(ClassifyStatement(meta), StatementKind::kMutating) << meta;
  }
  EXPECT_FALSE(FindMetaCommand(MetaCommands(), "\\advance")->read_only);
  EXPECT_FALSE(FindMetaCommand(MetaCommands(), "\\slowlog")->read_only);
}

TEST(ClassifierTest, MetaCommandsRouteByTheirRegistryEntry) {
  // Generated from the registry: a command's route is its entry's
  // read_only flag, with or without arguments.
  for (const MetaCommand& command : MetaCommands()) {
    const StatementKind expected = command.read_only
                                       ? StatementKind::kReadOnly
                                       : StatementKind::kMutating;
    const std::string name(command.name);
    EXPECT_EQ(ClassifyStatement(name), expected) << name;
    EXPECT_EQ(ClassifyStatement("  " + name + " t 1  "), expected) << name;
  }
}

TEST(ClassifierTest, ReadOnlySqlHandsBackItsParse) {
  std::optional<Query> parsed;
  EXPECT_EQ(ClassifyStatement("SELECT a FROM t WHERE a < 3", {}, &parsed),
            StatementKind::kReadOnly);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->table_name, "t");
  std::optional<Query> meta;
  EXPECT_EQ(ClassifyStatement("\\now", {}, &meta), StatementKind::kReadOnly);
  EXPECT_FALSE(meta.has_value());
}

TEST(ClassifierTest, TrackAccessTablesRouteToTheWriter) {
  ClassifyContext context;
  context.table_tracks_access = [](std::string_view table) {
    return table == "hot";
  };
  // Access-counter bumps feed ImportanceFungus; a SELECT over a
  // track_access table mutates those counters, so it is not read-only.
  EXPECT_EQ(ClassifyStatement("SELECT * FROM hot", context),
            StatementKind::kMutating);
  EXPECT_EQ(ClassifyStatement("SELECT * FROM cold", context),
            StatementKind::kReadOnly);
  // Without a context every SELECT is read-only.
  EXPECT_EQ(ClassifyStatement("SELECT * FROM hot"),
            StatementKind::kReadOnly);
}

TEST(ClassifierTest, ClassifyQueryMatchesStatementClassification) {
  const Query select = ParseQuery("SELECT a FROM t WHERE a < 3").value();
  EXPECT_EQ(ClassifyQuery(select), StatementKind::kReadOnly);
  const Query consume = ParseQuery("CONSUME SELECT a FROM t").value();
  EXPECT_EQ(ClassifyQuery(consume), StatementKind::kMutating);
}

TEST(ClassifierTest, BatchSplitsClassifyPerStatement) {
  // The server classifies each statement of a batch script; one
  // mutating statement sends the whole batch to the writer.
  const std::vector<std::string_view> statements = SplitStatements(
      "SELECT a FROM t; \\advance 1s; SELECT count(*) AS n FROM t");
  ASSERT_EQ(statements.size(), 3u);
  EXPECT_EQ(ClassifyStatement(statements[0]), StatementKind::kReadOnly);
  EXPECT_EQ(ClassifyStatement(statements[1]), StatementKind::kMutating);
  EXPECT_EQ(ClassifyStatement(statements[2]), StatementKind::kReadOnly);
}

}  // namespace
}  // namespace fungusdb
