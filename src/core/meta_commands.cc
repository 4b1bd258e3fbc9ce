#include "core/meta_commands.h"

#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "fungus/fungus_factory.h"
#include "pipeline/csv.h"
#include "query/parser.h"
#include "storage/schema.h"
#include "summary/table_stats.h"

namespace fungusdb {
namespace {

constexpr std::string_view kInsertUsage = "\\insert <table> <csv fields>";
constexpr std::string_view kMetricsUsage = "\\metrics [prom]";
constexpr std::string_view kTraceUsage = "\\trace on|off|dump";

Status UsageError(std::string_view usage) {
  return Status::InvalidArgument("usage: " + std::string(usage));
}

std::string Arg(const MetaStatement& statement, size_t i) {
  return std::string(statement.words[i]);
}

/// The command word of a `\`-prefixed statement, without splitting the
/// rest of it (the classifier runs on every statement).
std::string_view FirstWord(std::string_view text) {
  return text.substr(0, text.find_first_of(" \t\n\v\f\r"));
}

Result<ResultSet> Tables(Database& db, const MetaStatement&) {
  ResultSet rs;
  rs.column_names = {"table", "schema", "live_rows"};
  for (const std::string& name : db.TableNames()) {
    FUNGUSDB_ASSIGN_OR_RETURN(TableHandle t, db.GetTable(name));
    rs.rows.push_back({Value::String(name),
                       Value::String(t.schema().ToString()),
                       Value::Int64(static_cast<int64_t>(t.live_rows()))});
  }
  return rs;
}

Result<ResultSet> Create(Database& db, const MetaStatement& statement) {
  const std::string name = Arg(statement, 1);
  FUNGUSDB_ASSIGN_OR_RETURN(Schema schema, Schema::Parse(statement.Rest(2)));
  FUNGUSDB_RETURN_IF_ERROR(db.CreateTable(name, std::move(schema)).status());
  return TextResult("created", "created table " + name);
}

Result<ResultSet> Insert(Database& db, const MetaStatement& statement) {
  const InsertStatement insert = *SplitInsert(statement.text);
  const std::string table(insert.table);
  FUNGUSDB_ASSIGN_OR_RETURN(std::vector<Value> row,
                            ParseInsertRow(insert, db.GetTable(table)));
  FUNGUSDB_ASSIGN_OR_RETURN(RowId id, db.Insert(table, row));
  return RowIdResult(id);
}

Result<ResultSet> Attach(Database& db, const MetaStatement& statement) {
  FUNGUSDB_ASSIGN_OR_RETURN(Duration period,
                            ParseDuration(statement.words[3]));
  std::optional<std::string> arg;
  if (statement.words.size() == 5) arg = Arg(statement, 4);
  FUNGUSDB_ASSIGN_OR_RETURN(
      std::unique_ptr<Fungus> fungus,
      MakeFungusFromSpec(Arg(statement, 1), arg, db.Now()));
  const std::string description = fungus->Describe();
  const std::string table = Arg(statement, 2);
  FUNGUSDB_RETURN_IF_ERROR(
      db.AttachFungus(table, std::move(fungus), period).status());
  return TextResult("attached", "attached " + description + " to " + table +
                                    " every " + FormatDuration(period));
}

Result<ResultSet> Advance(Database& db, const MetaStatement& statement) {
  FUNGUSDB_ASSIGN_OR_RETURN(Duration d, ParseDuration(statement.words[1]));
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t ticks, db.AdvanceTime(d));
  ResultSet rs;
  rs.column_names = {"now", "ticks"};
  rs.rows.push_back({Value::String(FormatDuration(db.Now())),
                     Value::Int64(static_cast<int64_t>(ticks))});
  return rs;
}

Result<ResultSet> Freeze(Database& db, const MetaStatement& statement) {
  const std::string table = Arg(statement, 1);
  const std::optional<uint64_t> ticks =
      ParseInteger<uint64_t>(statement.words[2]);
  if (!ticks.has_value()) {
    return Status::InvalidArgument("bad tick count '" + Arg(statement, 2) +
                                   "'");
  }
  FUNGUSDB_RETURN_IF_ERROR(db.SetFreezeAfterIdleTicks(table, *ticks));
  return TextResult("freeze", *ticks == 0
                                  ? "freezing disabled on " + table
                                  : table + " freezes after " +
                                        std::to_string(*ticks) +
                                        " idle ticks");
}

Result<ResultSet> Now(Database& db, const MetaStatement&) {
  return TextResult("now", FormatDuration(db.Now()));
}

Result<ResultSet> Health(Database& db, const MetaStatement&) {
  return TextResult("health", db.Health().ToString());
}

Result<ResultSet> Fsck(Database& db, const MetaStatement&) {
  const verify::Report report = db.Fsck();
  FUNGUSDB_RETURN_IF_ERROR(report.ToStatus());
  return TextResult("fsck", report.ToString());
}

Result<ResultSet> Analyze(Database& db, const MetaStatement& statement) {
  FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table,
                            db.GetTable(Arg(statement, 1)));
  return TextResult("analyze", AnalyzeTable(table.table()).ToString());
}

Result<ResultSet> Rot(Database& db, const MetaStatement& statement) {
  FUNGUSDB_ASSIGN_OR_RETURN(RotReport report,
                            db.RotReportFor(Arg(statement, 1)));
  return TextResult("rot", report.ToString());
}

Result<ResultSet> Storage(Database& db, const MetaStatement& statement) {
  std::vector<std::string> names;
  if (statement.words.size() == 2) {
    // Resolve first so an unknown table reports NotFound, not an empty
    // result.
    FUNGUSDB_RETURN_IF_ERROR(db.GetTable(Arg(statement, 1)).status());
    names.push_back(Arg(statement, 1));
  } else {
    names = db.TableNames();
  }
  ResultSet rs;
  rs.column_names = {"table",         "segments",           "frozen",
                     "encoded_bytes", "plain_bytes_before", "compression_ratio",
                     "freezes_total", "thaws_total"};
  for (const std::string& name : names) {
    FUNGUSDB_ASSIGN_OR_RETURN(TableHandle t, db.GetTable(name));
    const StorageStats st = t.table().GetStorageStats();
    const double ratio = (st.frozen_segments > 0 && st.encoded_bytes > 0)
                             ? static_cast<double>(st.plain_bytes_before) /
                                   static_cast<double>(st.encoded_bytes)
                             : 0.0;
    rs.rows.push_back(
        {Value::String(name),
         Value::Int64(static_cast<int64_t>(st.total_segments)),
         Value::Int64(static_cast<int64_t>(st.frozen_segments)),
         Value::Int64(static_cast<int64_t>(st.encoded_bytes)),
         Value::Int64(static_cast<int64_t>(st.plain_bytes_before)),
         Value::Float64(ratio),
         Value::Int64(static_cast<int64_t>(st.segments_frozen_total)),
         Value::Int64(static_cast<int64_t>(st.thaw_count))});
  }
  return rs;
}

Result<ResultSet> CellarList(Database& db, const MetaStatement&) {
  ResultSet rs;
  rs.column_names = {"name", "kind", "freshness", "observations",
                     "memory_bytes"};
  for (const Cellar::EntryInfo& e : db.cellar().List()) {
    rs.rows.push_back({Value::String(e.name), Value::String(e.kind),
                       Value::Float64(e.freshness),
                       Value::Int64(static_cast<int64_t>(e.observations)),
                       Value::Int64(static_cast<int64_t>(e.memory_bytes))});
  }
  return rs;
}

Result<ResultSet> Metrics(Database& db, const MetaStatement& statement) {
  if (statement.words.size() == 1) {
    return TextResult("metrics", db.metrics().Report());
  }
  if (statement.words[1] != "prom") return UsageError(kMetricsUsage);
  return TextResult("metrics", db.metrics().PrometheusReport());
}

/// The tracer is a process-global, thread-safe facility outside the
/// database state machine, so every form is read-only.
Result<ResultSet> Trace(Database&, const MetaStatement& statement) {
  const std::string_view mode = statement.words[1];
  if (mode == "on") {
    Tracer::Global().Enable();
    return TextResult("trace", "tracing enabled");
  }
  if (mode == "off") {
    Tracer::Global().Disable();
    return TextResult("trace", "tracing disabled");
  }
  if (mode == "dump") {
    return TextResult("trace", Tracer::Global().ExportChromeJson());
  }
  return UsageError(kTraceUsage);
}

/// Mutating although the threshold is atomic: it rewrites a
/// database-wide setting, which belongs to the writer's total order.
Result<ResultSet> Slowlog(Database& db, const MetaStatement& statement) {
  const std::optional<int64_t> us = ParseInteger<int64_t>(statement.words[1]);
  if (!us.has_value() || *us < 0) {
    return Status::InvalidArgument("bad threshold '" + Arg(statement, 1) +
                                   "'");
  }
  db.set_slow_query_micros(*us);
  return TextResult("slowlog",
                    *us == 0 ? "slow-query log disabled"
                             : "slow-query threshold " +
                                   std::to_string(*us) + "us");
}

constexpr MetaCommand kCommands[] = {
    {"\\tables", "\\tables", "list tables", true, 0, 0, Tables},
    {"\\create", "\\create <name> (<col> <type> [null], ...)",
     "create a table (types: int64 float64 string bool timestamp)", false, 2,
     kAnyArgs, Create},
    {"\\insert", kInsertUsage, "append one row (e.g. \\insert t 1,hot)",
     false, 2, kAnyArgs, Insert},
    {"\\attach", "\\attach <fungus> <table> <period> [arg]",
     "attach a decay fungus: retention <dur> | exponential <half-life> | "
     "egi | window <rows> | quota <bytes>",
     false, 3, 4, Attach},
    {"\\advance", "\\advance <duration>",
     "advance virtual time (e.g. 2h, 1d3h)", false, 1, 1, Advance},
    {"\\freeze", "\\freeze <table> <idle_ticks>",
     "freeze segments idle for that many decay ticks (0 = never)", false, 2,
     2, Freeze},
    {"\\now", "\\now", "show virtual time", true, 0, 0, Now},
    {"\\health", "\\health", "per-table health report", true, 0, 0, Health},
    {"\\fsck", "\\fsck", "run the invariant checker", true, 0, 0, Fsck},
    {"\\analyze", "\\analyze <table>", "per-column statistics", true, 1, 1,
     Analyze},
    {"\\rot", "\\rot <table>",
     "rot report: freshness histogram, rot front, ticks-to-death, heatmap",
     true, 1, 1, Rot},
    {"\\storage", "\\storage [table]",
     "cold-tier stats: frozen segments, encoded vs plain bytes, thaws", true,
     0, 1, Storage},
    {"\\cellar", "\\cellar", "list cooked summaries", true, 0, 0, CellarList},
    {"\\metrics", kMetricsUsage, "metrics dump (prom: Prometheus text)", true,
     0, 1, Metrics},
    {"\\trace", kTraceUsage, "toggle the span tracer, or dump its JSON",
     true, 1, 1, Trace},
    {"\\slowlog", "\\slowlog <micros>", "slow-query log threshold (0 = off)",
     false, 1, 1, Slowlog},
};

}  // namespace

std::string_view MetaStatement::Rest(size_t n) const {
  if (n >= words.size()) return {};
  return text.substr(static_cast<size_t>(words[n].data() - text.data()));
}

MetaStatement SplitMetaStatement(std::string_view statement) {
  MetaStatement split;
  split.text = StripWhitespace(statement);
  split.words = SplitWhitespace(split.text);
  return split;
}

std::span<const MetaCommand> MetaCommands() { return kCommands; }

Result<ResultSet> ExecuteStatement(Database& db, std::string_view statement) {
  statement = StripWhitespace(statement);
  if (statement.empty()) return Status::InvalidArgument("empty statement");
  if (statement.front() != '\\') return db.ExecuteSql(statement);
  const MetaStatement meta = SplitMetaStatement(statement);
  const MetaCommand* command = FindMetaCommand(MetaCommands(), meta.words[0]);
  if (command == nullptr) {
    return Status::InvalidArgument("unknown command " + Arg(meta, 0) +
                                   " (try \\help)");
  }
  return RunMetaCommand(*command, db, meta);
}

StatementKind ClassifyStatement(std::string_view statement,
                                const ClassifyContext& context,
                                std::optional<Query>* parsed) {
  const std::string_view trimmed = StripWhitespace(statement);
  if (trimmed.empty()) return StatementKind::kMutating;
  if (trimmed.front() == '\\') {
    const MetaCommand* command =
        FindMetaCommand(MetaCommands(), FirstWord(trimmed));
    return command != nullptr && command->read_only
               ? StatementKind::kReadOnly
               : StatementKind::kMutating;
  }
  // SQL: only a statement the parser provably accepts as a
  // non-consuming SELECT is read-only. INSERT/CREATE/DROP/INTO text
  // (supported or not) fails to parse as a Query and stays with the
  // writer, which owns error reporting in total order.
  Result<Query> query = ParseQuery(trimmed);
  if (!query.ok()) return StatementKind::kMutating;
  const StatementKind kind = ClassifyQuery(query.value(), context);
  if (parsed != nullptr) *parsed = std::move(query).value();
  return kind;
}

std::optional<InsertStatement> SplitInsert(std::string_view statement) {
  statement = StripWhitespace(statement);
  if (FirstWord(statement) != "\\insert") return std::nullopt;
  const MetaStatement split = SplitMetaStatement(statement);
  InsertStatement insert;
  if (split.words.size() >= 2) {
    insert.table = split.words[1];
    insert.csv = split.Rest(2);
  }
  return insert;
}

Result<std::vector<Value>> ParseInsertRow(const InsertStatement& insert,
                                          const Result<TableHandle>& table) {
  if (insert.csv.empty()) return UsageError(kInsertUsage);
  if (!table.ok()) return table.status();
  return ParseCsvRow(table->schema(), insert.csv);
}

ResultSet RowIdResult(RowId row) {
  ResultSet rs;
  rs.column_names = {"row_id"};
  rs.rows.push_back({Value::Int64(static_cast<int64_t>(row))});
  return rs;
}

ResultSet TextResult(std::string column, std::string text) {
  ResultSet rs;
  rs.column_names.push_back(std::move(column));
  rs.rows.push_back({Value::String(std::move(text))});
  return rs;
}

}  // namespace fungusdb
