// fungusql — an interactive shell for FungusDB.
//
//   ./build/tools/fungusql                       # embedded database
//   ./build/tools/fungusql --connect host:port   # talk to a fungusd
//
// SQL statements and the database's meta commands (tables, fungi,
// time, reports — the registry in core/meta_commands.h) run against an
// in-memory database on a virtual clock, or, with --connect, on the
// fungusd, which runs the same registry: every one of them answers the
// same in both modes. The shell's own commands act on its files and
// process: \help \quit \save \load \import \export, and `\trace dump
// <file>`. Type \help inside the shell. Semicolons separate SQL
// statements on one line; each gets its own result. Errors print with
// their stable code, e.g. `error: E:1203 TableNotFound: no table "t"`.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fungusdb/client.h"
#include "fungusdb/common.h"
#include "fungusdb/csv.h"
#include "fungusdb/database.h"
#include "fungusdb/persist.h"
#include "fungusdb/query.h"

namespace fungusdb {
namespace {

class Shell;
using ShellCommand = MetaCommandEntry<Shell>;

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
    while (!done_) {
      if (interactive) {
        std::printf("fungus> ");
        std::fflush(stdout);
      }
      if (!std::getline(std::cin, line)) break;
      const std::string_view trimmed = StripWhitespace(line);
      if (!trimmed.empty()) RunLine(trimmed);
    }
    return exit_code_;
  }

 private:
  /// The shell's own commands; everything else goes to the database.
  /// They never reach a server, so `read_only` is unused here.
  static const ShellCommand kCommands[];
  static std::span<const ShellCommand> Commands();

  void RunLine(std::string_view line) {
    if (line.front() == '\\') {
      const MetaStatement statement = SplitMetaStatement(line);
      const ShellCommand* command =
          FindMetaCommand(Commands(), statement.words[0]);
      Print(command != nullptr ? RunMetaCommand(*command, *this, statement)
                               : ExecuteOne(line),
            /*meta=*/true);
      return;
    }
    std::vector<std::string> statements;
    for (std::string_view statement : SplitStatements(line)) {
      statements.emplace_back(statement);
    }
    if (statements.empty()) return;
    for (Result<ResultSet>& result : Execute(statements)) {
      Print(std::move(result), /*meta=*/false);
    }
  }

  /// Runs statements on the embedded database or the fungusd — the one
  /// place the two modes differ.
  std::vector<Result<ResultSet>> Execute(
      const std::vector<std::string>& statements) {
    if (remote_ != nullptr) {
      Result<std::vector<Result<ResultSet>>> results =
          remote_->Execute(statements);
      if (!results.ok()) return {results.status()};
      return std::move(results).value();
    }
    std::vector<Result<ResultSet>> results;
    results.reserve(statements.size());
    for (const std::string& statement : statements) {
      results.push_back(ExecuteStatement(*db_, statement));
    }
    return results;
  }

  Result<ResultSet> ExecuteOne(std::string_view statement) {
    return std::move(Execute({std::string(statement)})[0]);
  }

  /// Failures print with their stable code and fail the session (so
  /// scripted sessions can detect them) without stopping it. A meta
  /// command's one text cell (reports, acknowledgements, trace JSON)
  /// prints raw; everything else renders as a table.
  void Print(Result<ResultSet> result, bool meta) {
    if (!result.ok()) {
      std::printf("error: %s: %s\n", result.status().ErrorLabel().c_str(),
                  result.status().message().c_str());
      exit_code_ = 1;
      return;
    }
    const ResultSet& rs = result.value();
    if (rs.column_names.empty()) return;
    if (meta && rs.num_rows() == 1 && rs.num_columns() == 1 &&
        rs.at(0, 0).type() == DataType::kString) {
      const std::string& text = rs.at(0, 0).AsString();
      std::printf("%s%s", text.c_str(),
                  text.empty() || text.back() != '\n' ? "\n" : "");
      return;
    }
    std::printf("%s", rs.ToString(40).c_str());
    if (rs.stats.rows_consumed > 0) {
      std::printf("consumed %llu tuples\n",
                  static_cast<unsigned long long>(rs.stats.rows_consumed));
    }
  }

  /// The embedded database, which --connect mode does not have.
  Result<Database*> Local(const MetaStatement& statement) {
    if (db_ == nullptr) {
      return Status::InvalidArgument(std::string(statement.words[0]) +
                                     " works on the embedded database "
                                     "only, not over --connect");
    }
    return db_.get();
  }

  static Result<ResultSet> Help(Shell&, const MetaStatement&) {
    std::string text = "fungusql commands:\n";
    auto add = [&text](const auto& command) {
      std::string line = "  " + std::string(command.usage);
      line.resize(std::max<size_t>(line.size() + 2, 46), ' ');
      text += line + std::string(command.summary) + "\n";
    };
    for (const ShellCommand& command : Commands()) add(command);
    for (const MetaCommand& command : MetaCommands()) add(command);
    text +=
        "Anything else is executed as SQL, e.g.\n"
        "  SELECT count(*) FROM t\n"
        "  CONSUME SELECT * FROM t WHERE __freshness < 0.2\n";
    return TextResult("help", std::move(text));
  }

  static Result<ResultSet> Quit(Shell& shell, const MetaStatement&) {
    shell.done_ = true;
    return ResultSet{};
  }

  /// `\trace dump <file>` writes the trace JSON of the database —
  /// embedded or remote — to a local file; every other `\trace` form is
  /// the database's own command.
  static Result<ResultSet> Trace(Shell& shell,
                                 const MetaStatement& statement) {
    if (statement.words.size() != 3 || statement.words[1] != "dump") {
      return shell.ExecuteOne(statement.text);
    }
    FUNGUSDB_ASSIGN_OR_RETURN(ResultSet rs, shell.ExecuteOne("\\trace dump"));
    if (rs.num_rows() != 1 || rs.num_columns() != 1 ||
        rs.at(0, 0).type() != DataType::kString) {
      return Status::Internal("malformed \\trace dump response");
    }
    const std::string path(statement.words[2]);
    std::ofstream file(path, std::ios::trunc);
    if (!file) return Status::Internal("cannot open " + path);
    const std::string& json = rs.at(0, 0).AsString();
    file << json;
    file.flush();
    if (!file) return Status::Internal("short write to " + path);
    return TextResult("wrote", "wrote " + std::to_string(json.size()) +
                                   " bytes to " + path);
  }

  static Result<ResultSet> Save(Shell& shell,
                                const MetaStatement& statement) {
    FUNGUSDB_ASSIGN_OR_RETURN(Database * db, shell.Local(statement));
    const std::string path(statement.words[1]);
    FUNGUSDB_RETURN_IF_ERROR(SaveDatabaseSnapshot(*db, path));
    return TextResult("saved", "saved snapshot to " + path);
  }

  static Result<ResultSet> Load(Shell& shell,
                                const MetaStatement& statement) {
    FUNGUSDB_RETURN_IF_ERROR(shell.Local(statement).status());
    FUNGUSDB_ASSIGN_OR_RETURN(
        shell.db_, LoadDatabaseSnapshot(std::string(statement.words[1])));
    return TextResult("loaded", "loaded snapshot (t=" +
                                    FormatDuration(shell.db_->Now()) +
                                    "); re-attach fungi as needed");
  }

  static Result<ResultSet> Import(Shell& shell,
                                  const MetaStatement& statement) {
    FUNGUSDB_ASSIGN_OR_RETURN(Database * db, shell.Local(statement));
    const std::string table_name(statement.words[1]);
    const std::string path(statement.words[2]);
    FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table, db->GetTable(table_name));
    std::ifstream file(path);
    if (!file) return Status::NotFound("cannot open " + path);
    CsvSource source(&file, table.schema());
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t n,
                              db->Ingest(table_name, source, UINT64_MAX));
    FUNGUSDB_RETURN_IF_ERROR(source.status());
    return TextResult("imported", "imported " + std::to_string(n) +
                                      " rows into " + table_name);
  }

  static Result<ResultSet> Export(Shell& shell,
                                  const MetaStatement& statement) {
    FUNGUSDB_ASSIGN_OR_RETURN(Database * db, shell.Local(statement));
    const std::string path(statement.words[2]);
    FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table,
                              db->GetTable(std::string(statement.words[1])));
    std::ofstream file(path, std::ios::trunc);
    if (!file) return Status::Internal("cannot open " + path);
    FUNGUSDB_RETURN_IF_ERROR(WriteCsv(table.table(), file));
    return TextResult("exported", "exported " +
                                      std::to_string(table.live_rows()) +
                                      " rows");
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<server::Client> remote_;
  bool done_ = false;
  int exit_code_ = 0;
};

const ShellCommand Shell::kCommands[] = {
    {"\\help", "\\help", "this text", false, 0, 0, Help},
    {"\\quit", "\\quit", "exit", false, 0, 0, Quit},
    {"\\import", "\\import <table> <file.csv>",
     "ingest a CSV file (header row; embedded database only)", false, 2, 2,
     Import},
    {"\\export", "\\export <table> <file.csv>",
     "write live rows as CSV (embedded database only)", false, 2, 2, Export},
    {"\\save", "\\save <file>", "snapshot the database (embedded only)",
     false, 1, 1, Save},
    {"\\load", "\\load <file>",
     "replace the database from a snapshot (embedded only)", false, 1, 1,
     Load},
    {"\\trace", "\\trace dump <file>", "write the trace JSON to a local file",
     false, 0, kAnyArgs, Trace},
};

std::span<const ShellCommand> Shell::Commands() { return kCommands; }

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
