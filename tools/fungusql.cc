// fungusql — an interactive shell for FungusDB.
//
//   ./build/tools/fungusql                       # embedded database
//   ./build/tools/fungusql --connect host:port   # talk to a fungusd
//
// SQL statements run against an in-memory database on a virtual clock;
// meta commands (backslash-prefixed) manage tables, fungi, time, CSV
// import/export, and snapshots. Type \help inside the shell.
// Semicolons separate statements on one line; each gets its own result.
//
// With --connect, every line is shipped to the server instead (which
// supports SQL plus the remote meta subset — \health \now \metrics
// \fsck \tables \advance \create \insert). Errors print with their
// stable code, e.g. `error: E:1203 TableNotFound: no table "t"`.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fungusdb/client.h"
#include "fungusdb/common.h"
#include "fungusdb/csv.h"
#include "fungusdb/database.h"
#include "fungusdb/fungi.h"
#include "fungusdb/persist.h"
#include "fungusdb/query.h"
#include "fungusdb/summaries.h"

namespace fungusdb {
namespace {

constexpr const char* kHelp = R"(fungusql meta commands:
  \help                                  this text
  \tables                                list tables
  \create <name> (<col> <type> [null], ...)   create a table
                                         types: int64 float64 string bool timestamp
  \insert <table> <csv fields>           append one row (e.g. \insert t 1,hot)
  \attach <fungus> <table> <period> [arg]     attach a decay fungus
         fungi: retention <dur> | exponential <half-life> | egi |
                window <rows> | quota <bytes>
  \advance <duration>                    advance virtual time (e.g. 2h, 1d3h)
  \now                                   show virtual time
  \health                                per-table health report
  \fsck                                  run the invariant checker
  \analyze <table>                       per-column statistics
  \rot <table>                           rot report: freshness histogram,
                                         rot front, ticks-to-death, heatmap
  \storage [table]                       cold-tier stats: frozen segments,
                                         encoded vs plain bytes, thaws
  \metrics [prom]                        metrics dump (prom: Prometheus text)
  \trace on|off                          toggle the span tracer
  \trace dump [file]                     Chrome trace JSON (stdout or file)
  \slowlog <micros>                      slow-query log threshold (0 = off)
  \cellar                                list cooked summaries
  \import <table> <file.csv>             ingest a CSV file (header row)
  \export <table> <file.csv>             write live rows as CSV
  \save <file>                           snapshot the database
  \load <file>                           replace the database from a snapshot
  \quit                                  exit
Anything else is executed as SQL, e.g.
  SELECT count(*) FROM t
  CONSUME SELECT * FROM t WHERE __freshness < 0.2
)";

Result<DataType> TypeByName(const std::string& name) {
  for (DataType t : {DataType::kInt64, DataType::kFloat64,
                     DataType::kString, DataType::kBool,
                     DataType::kTimestamp}) {
    if (name == DataTypeName(t)) return t;
  }
  return Status::ParseError("unknown type '" + name + "'");
}

/// Parses "(a int64, b float64 null, c string)".
Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::string body = spec;
  const size_t open = body.find('(');
  const size_t close = body.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return Status::ParseError("expected (col type, ...)");
  }
  body = body.substr(open + 1, close - open - 1);
  std::vector<Field> fields;
  for (const std::string& part : Split(body, ',')) {
    const std::vector<std::string_view> words = SplitWhitespace(part);
    if (words.size() < 2 || words.size() > 3) {
      return Status::ParseError("bad column spec '" + part + "'");
    }
    Field f;
    f.name = std::string(words[0]);
    FUNGUSDB_ASSIGN_OR_RETURN(f.type, TypeByName(ToLower(words[1])));
    if (words.size() == 3) {
      if (ToLower(words[2]) != "null") {
        return Status::ParseError("expected 'null', got '" +
                                  std::string(words[2]) + "'");
      }
      f.nullable = true;
    }
    fields.push_back(std::move(f));
  }
  return Schema::Make(std::move(fields));
}

class Shell {
 public:
  Shell() : db_(std::make_unique<Database>()) {}
  explicit Shell(server::Client client)
      : remote_(std::make_unique<server::Client>(std::move(client))) {}

  int Run() {
    std::string line;
    // Piped sessions (CI smoke tests, scripts) get clean output with no
    // banner or prompts; humans on a terminal get both.
    const bool interactive = ::isatty(STDIN_FILENO) != 0;
    if (interactive) {
      std::printf("FungusDB shell — \\help for commands, \\quit to exit\n");
    }
    while (true) {
      if (interactive) {
        std::printf("fungus> ");
        std::fflush(stdout);
      }
      if (!std::getline(std::cin, line)) break;
      const std::string trimmed(StripWhitespace(line));
      if (trimmed.empty()) continue;
      if (trimmed == "\\quit" || trimmed == "\\q") break;
      Status status;
      if (remote_ != nullptr) {
        status = RunRemote(trimmed);
      } else {
        status = trimmed[0] == '\\' ? RunMeta(trimmed) : RunSql(trimmed);
      }
      if (!status.ok()) {
        // The stable numeric code leads so scripts can match on it
        // without parsing prose, e.g. `error: E:1203 TableNotFound: ...`.
        std::printf("error: %s: %s\n", status.ErrorLabel().c_str(),
                    status.message().c_str());
        // A failed statement makes the whole session fail, so scripted
        // sessions (smoke tests, CI pipelines) can detect it.
        exit_code_ = 1;
      }
    }
    return exit_code_;
  }

 private:
  void PrintResultSet(const ResultSet& rs) {
    // Meta commands ship multi-line text (reports, trace JSON) as one
    // string cell; print it raw instead of mangling it through the
    // table renderer's column truncation.
    if (rs.rows.size() == 1 && rs.rows[0].size() == 1 &&
        rs.rows[0][0].type() == DataType::kString &&
        rs.rows[0][0].AsString().find('\n') != std::string::npos) {
      std::printf("%s", rs.rows[0][0].AsString().c_str());
      return;
    }
    std::printf("%s", rs.ToString(40).c_str());
    if (rs.stats.rows_consumed > 0) {
      std::printf("consumed %llu tuples\n",
                  static_cast<unsigned long long>(rs.stats.rows_consumed));
    }
  }

  /// Prints each batch result; failures are reported per statement
  /// (with their stable code) and fail the session without aborting
  /// the rest of the batch.
  Status PrintBatch(std::vector<Result<ResultSet>> results) {
    for (Result<ResultSet>& result : results) {
      if (!result.ok()) {
        std::printf("error: %s: %s\n",
                    result.status().ErrorLabel().c_str(),
                    result.status().message().c_str());
        exit_code_ = 1;
        continue;
      }
      PrintResultSet(result.value());
    }
    return Status::OK();
  }

  Status RunSql(const std::string& sql) {
    // One line may hold several ;-separated statements; the batch API
    // runs them all and reports per-statement errors.
    const std::vector<std::string_view> statements = SplitStatements(sql);
    if (statements.empty()) return Status::OK();
    return PrintBatch(db_->ExecuteBatch(statements));
  }

  /// Ships the whole line (SQL or meta) to the fungusd; the server
  /// decides what it supports.
  Status RunRemote(const std::string& line) {
    // `\trace dump <file>` runs client-side: the server returns the
    // trace JSON as one cell, and the shell writes it to the local file.
    const std::vector<std::string_view> words = SplitWhitespace(line);
    if (words.size() == 3 && words[0] == "\\trace" && words[1] == "dump") {
      FUNGUSDB_ASSIGN_OR_RETURN(
          std::vector<Result<ResultSet>> results,
          remote_->Execute(std::vector<std::string>{"\\trace dump"}));
      if (results.size() != 1) {
        return Status::Internal("expected one result for \\trace dump");
      }
      FUNGUSDB_RETURN_IF_ERROR(results[0].status());
      const ResultSet& rs = results[0].value();
      if (rs.rows.size() != 1 || rs.rows[0].size() != 1 ||
          rs.rows[0][0].type() != DataType::kString) {
        return Status::Internal("malformed \\trace dump response");
      }
      return WriteTextFile(std::string(words[2]), rs.rows[0][0].AsString());
    }
    std::vector<std::string> statements;
    if (line[0] == '\\') {
      statements.push_back(line);
    } else {
      for (std::string_view statement : SplitStatements(line)) {
        statements.emplace_back(statement);
      }
    }
    if (statements.empty()) return Status::OK();
    FUNGUSDB_ASSIGN_OR_RETURN(std::vector<Result<ResultSet>> results,
                              remote_->Execute(statements));
    return PrintBatch(std::move(results));
  }

  Status RunMeta(const std::string& line) {
    const std::vector<std::string_view> words = SplitWhitespace(line);
    const std::vector<std::string> args(words.begin(), words.end());
    const std::string& cmd = args[0];
    if (cmd == "\\help") {
      std::printf("%s", kHelp);
      return Status::OK();
    }
    if (cmd == "\\tables") {
      for (const std::string& name : db_->TableNames()) {
        const TableHandle t = db_->GetTable(name).value();
        std::printf("  %s %s — %llu live rows\n", name.c_str(),
                    t.schema().ToString().c_str(),
                    static_cast<unsigned long long>(t.live_rows()));
      }
      return Status::OK();
    }
    if (cmd == "\\create") {
      if (args.size() < 2) {
        return Status::InvalidArgument("usage: \\create <name> (...)");
      }
      // Search after the command token — the table name may be a
      // substring of "\create" itself (e.g. a table called "c").
      const size_t name_end =
          line.find(args[1], cmd.size()) + args[1].size();
      FUNGUSDB_ASSIGN_OR_RETURN(Schema schema,
                                ParseSchemaSpec(line.substr(name_end)));
      FUNGUSDB_RETURN_IF_ERROR(
          db_->CreateTable(args[1], std::move(schema)).status());
      std::printf("created table %s\n", args[1].c_str());
      return Status::OK();
    }
    if (cmd == "\\insert") {
      if (args.size() < 3) {
        return Status::InvalidArgument(
            "usage: \\insert <table> <csv fields>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db_->GetTable(args[1]));
      const size_t table_end =
          static_cast<size_t>(words[1].data() - line.data()) +
          words[1].size();
      FUNGUSDB_ASSIGN_OR_RETURN(
          std::vector<Value> values,
          ParseCsvRow(table.schema(),
                      StripWhitespace(std::string_view(line).substr(
                          table_end))));
      FUNGUSDB_ASSIGN_OR_RETURN(RowId row, db_->Insert(args[1], values));
      std::printf("inserted row %llu\n",
                  static_cast<unsigned long long>(row));
      return Status::OK();
    }
    if (cmd == "\\attach") return Attach(args);
    if (cmd == "\\advance") {
      if (args.size() != 2) {
        return Status::InvalidArgument("usage: \\advance <duration>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(Duration d, ParseDuration(args[1]));
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t ticks, db_->AdvanceTime(d));
      std::printf("advanced to t=%s (%llu decay ticks)\n",
                  FormatDuration(db_->Now()).c_str(),
                  static_cast<unsigned long long>(ticks));
      return Status::OK();
    }
    if (cmd == "\\now") {
      std::printf("t=%s\n", FormatDuration(db_->Now()).c_str());
      return Status::OK();
    }
    if (cmd == "\\health") {
      std::printf("%s", db_->Health().ToString().c_str());
      return Status::OK();
    }
    if (cmd == "\\fsck") {
      const verify::Report report = db_->Fsck();
      std::printf("%s", report.ToString().c_str());
      return report.ToStatus();
    }
    if (cmd == "\\rot") {
      if (args.size() != 2) {
        return Status::InvalidArgument("usage: \\rot <table>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db_->GetTable(args[1]));
      std::printf("%s", BuildRotReport(table.table(), &db_->scheduler())
                            .ToString()
                            .c_str());
      return Status::OK();
    }
    if (cmd == "\\storage") {
      if (args.size() > 2) {
        return Status::InvalidArgument("usage: \\storage [table]");
      }
      std::vector<std::string> names;
      if (args.size() == 2) {
        FUNGUSDB_RETURN_IF_ERROR(db_->GetTable(args[1]).status());
        names.push_back(args[1]);
      } else {
        names = db_->TableNames();
      }
      for (const std::string& name : names) {
        FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db_->GetTable(name));
        const StorageStats st = table.table().GetStorageStats();
        const double ratio =
            (st.frozen_segments > 0 && st.encoded_bytes > 0)
                ? static_cast<double>(st.plain_bytes_before) /
                      static_cast<double>(st.encoded_bytes)
                : 0.0;
        std::printf(
            "  %-24s segments=%llu frozen=%llu encoded=%llu plain=%llu "
            "ratio=%.2f freezes=%llu thaws=%llu\n",
            name.c_str(),
            static_cast<unsigned long long>(st.total_segments),
            static_cast<unsigned long long>(st.frozen_segments),
            static_cast<unsigned long long>(st.encoded_bytes),
            static_cast<unsigned long long>(st.plain_bytes_before),
            ratio,
            static_cast<unsigned long long>(st.segments_frozen_total),
            static_cast<unsigned long long>(st.thaw_count));
      }
      return Status::OK();
    }
    if (cmd == "\\metrics") {
      if (args.size() == 2 && args[1] == "prom") {
        std::printf("%s", db_->metrics().PrometheusReport().c_str());
        return Status::OK();
      }
      if (args.size() != 1) {
        return Status::InvalidArgument("usage: \\metrics [prom]");
      }
      std::printf("%s", db_->metrics().Report().c_str());
      return Status::OK();
    }
    if (cmd == "\\trace") {
      if (args.size() == 2 && args[1] == "on") {
        Tracer::Global().Enable();
        std::printf("tracing enabled\n");
        return Status::OK();
      }
      if (args.size() == 2 && args[1] == "off") {
        Tracer::Global().Disable();
        std::printf("tracing disabled\n");
        return Status::OK();
      }
      if ((args.size() == 2 || args.size() == 3) && args[1] == "dump") {
        const std::string json = Tracer::Global().ExportChromeJson();
        if (args.size() == 3) return WriteTextFile(args[2], json);
        std::printf("%s", json.c_str());
        return Status::OK();
      }
      return Status::InvalidArgument("usage: \\trace on|off|dump [file]");
    }
    if (cmd == "\\slowlog") {
      if (args.size() != 2) {
        return Status::InvalidArgument("usage: \\slowlog <micros>");
      }
      char* end = nullptr;
      const long long us = std::strtoll(args[1].c_str(), &end, 10);
      if (end == args[1].c_str() || *end != '\0' || us < 0) {
        return Status::InvalidArgument("bad threshold '" + args[1] + "'");
      }
      db_->set_slow_query_micros(us);
      std::printf("slow-query threshold %lldus%s\n", us,
                  us == 0 ? " (disabled)" : "");
      return Status::OK();
    }
    if (cmd == "\\analyze") {
      if (args.size() != 2) {
        return Status::InvalidArgument("usage: \\analyze <table>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db_->GetTable(args[1]));
      std::printf("%s", AnalyzeTable(table.table()).ToString().c_str());
      return Status::OK();
    }
    if (cmd == "\\cellar") {
      for (const Cellar::EntryInfo& e : db_->cellar().List()) {
        std::printf("  %-24s %-18s freshness=%.3f obs=%llu %s\n",
                    e.name.c_str(), e.kind.c_str(), e.freshness,
                    static_cast<unsigned long long>(e.observations),
                    FormatBytes(e.memory_bytes).c_str());
      }
      return Status::OK();
    }
    if (cmd == "\\import") {
      if (args.size() != 3) {
        return Status::InvalidArgument("usage: \\import <table> <file>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db_->GetTable(args[1]));
      std::ifstream file(args[2]);
      if (!file) return Status::NotFound("cannot open " + args[2]);
      CsvSource source(&file, table.schema());
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t n,
                                db_->Ingest(args[1], source, UINT64_MAX));
      FUNGUSDB_RETURN_IF_ERROR(source.status());
      std::printf("imported %llu rows into %s\n",
                  static_cast<unsigned long long>(n), args[1].c_str());
      return Status::OK();
    }
    if (cmd == "\\export") {
      if (args.size() != 3) {
        return Status::InvalidArgument("usage: \\export <table> <file>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db_->GetTable(args[1]));
      std::ofstream file(args[2], std::ios::trunc);
      if (!file) return Status::Internal("cannot open " + args[2]);
      FUNGUSDB_RETURN_IF_ERROR(WriteCsv(table.table(), file));
      std::printf("exported %llu rows\n",
                  static_cast<unsigned long long>(table.live_rows()));
      return Status::OK();
    }
    if (cmd == "\\save") {
      if (args.size() != 2) {
        return Status::InvalidArgument("usage: \\save <file>");
      }
      FUNGUSDB_RETURN_IF_ERROR(SaveDatabaseSnapshot(*db_, args[1]));
      std::printf("saved snapshot to %s\n", args[1].c_str());
      return Status::OK();
    }
    if (cmd == "\\load") {
      if (args.size() != 2) {
        return Status::InvalidArgument("usage: \\load <file>");
      }
      FUNGUSDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> loaded,
                                LoadDatabaseSnapshot(args[1]));
      db_ = std::move(loaded);
      std::printf("loaded snapshot (t=%s); re-attach fungi as needed\n",
                  FormatDuration(db_->Now()).c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("unknown command " + cmd +
                                   " (try \\help)");
  }

  Status Attach(const std::vector<std::string>& args) {
    if (args.size() < 4 || args.size() > 5) {
      return Status::InvalidArgument(
          "usage: \\attach <fungus> <table> <period> [arg]");
    }
    const std::string& table = args[2];
    FUNGUSDB_ASSIGN_OR_RETURN(Duration period, ParseDuration(args[3]));
    std::optional<std::string> arg;
    if (args.size() == 5) arg = args[4];
    FUNGUSDB_ASSIGN_OR_RETURN(
        std::unique_ptr<Fungus> fungus,
        MakeFungusFromSpec(args[1], arg, db_->Now()));
    const std::string description = fungus->Describe();
    FUNGUSDB_RETURN_IF_ERROR(
        db_->AttachFungus(table, std::move(fungus), period).status());
    std::printf("attached %s to %s every %s\n", description.c_str(),
                table.c_str(), FormatDuration(period).c_str());
    return Status::OK();
  }

  static Status WriteTextFile(const std::string& path,
                              const std::string& text) {
    std::ofstream file(path, std::ios::trunc);
    if (!file) return Status::Internal("cannot open " + path);
    file << text;
    file.flush();
    if (!file) return Status::Internal("short write to " + path);
    std::printf("wrote %zu bytes to %s\n", text.size(), path.c_str());
    return Status::OK();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<server::Client> remote_;
  int exit_code_ = 0;
};

}  // namespace
}  // namespace fungusdb

int main(int argc, char** argv) {
  std::string connect_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--connect host:port]\n", argv[0]);
      return 2;
    }
  }
  if (!connect_spec.empty()) {
    auto client = fungusdb::server::Client::ConnectSpec(connect_spec);
    if (!client.ok()) {
      std::fprintf(stderr, "fungusql: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "connected to %s\n", connect_spec.c_str());
    fungusdb::Shell shell(std::move(client).value());
    return shell.Run();
  }
  fungusdb::Shell shell;
  return shell.Run();
}
