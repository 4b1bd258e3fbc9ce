#include "executor.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/clock.h"
#include "common/string_util.h"
#include "fungus/fungus_factory.h"
#include "pipeline/csv.h"
#include "query/parser.h"
#include "server/wire_format.h"

namespace fungusbench {

using fungusdb::Result;
using fungusdb::ResultSet;
using fungusdb::Status;
using fungusdb::Value;

// --- Daemon ---

std::unique_ptr<Daemon> Daemon::Start(const std::string& binary,
                                      const std::string& work_dir,
                                      int read_workers,
                                      const std::vector<int>& cpus,
                                      std::string* error) {
  static int launches = 0;
  const std::string port_file = work_dir + "/port-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(launches++);
  const std::string log_file = work_dir + "/fungusd.log";
  std::remove(port_file.c_str());
  const std::string workers = std::to_string(read_workers);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int cpu : cpus) CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    // Only async-signal-safe calls between fork and exec: the parent's
    // stdio buffers must not be flushed twice.
    const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = ::open("/dev/null", O_WRONLY);
    if (log < 0 || null < 0 || ::dup2(log, 2) < 0 || ::dup2(null, 1) < 0) {
      ::_exit(126);
    }
    // The daemon receives fixed flags only: an ephemeral port reported
    // through a file, and a fixed read-worker pool.
    ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--port-file",
            port_file.c_str(), "--read-workers", workers.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Wait for the port file: fungusd writes it once it listens.
  const int64_t deadline = NowMicros() + 20'000'000;
  while (NowMicros() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      *error = "fungusd exited during start-up; see " + log_file;
      return nullptr;
    }
    std::ifstream in(port_file);
    std::string line;
    if (std::getline(in, line) && !line.empty() && in.good()) {
      std::remove(port_file.c_str());
      return std::unique_ptr<Daemon>(
          new Daemon(pid, static_cast<uint16_t>(std::atoi(line.c_str()))));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  *error = "fungusd did not report its port within 20 s";
  return nullptr;
}

Daemon::~Daemon() { Stop(); }

bool Daemon::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const int64_t deadline = NowMicros() + 10'000'000;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return done == 0 ? false : WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::RssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return std::nan("");
}

// --- WireExecutor ---

Reply WireExecutor::Run(Shape shape,
                        const std::vector<std::string>& statements) {
  Reply reply;
  const uint64_t request_id =
      (static_cast<uint64_t>(conn_) << 32) | next_request_++;
  if (!client_.connected()) {
    // A dropped connection is re-opened once per request; the request
    // counts as failed when that does not work either.
    Result<fungusdb::server::Client> again =
        fungusdb::server::Client::Connect("127.0.0.1", port_);
    if (!again.ok()) {
      reply.transport = again.status();
      reply.sent_us = reply.done_us = NowMicros();
      return reply;
    }
    client_ = std::move(again).value();
  }
  if (window_us_ > 0 && NowMicros() >= next_switch_us_) SwitchTracer();
  reply.sent_us = NowMicros();
  Result<std::vector<Result<ResultSet>>> got = client_.Execute(statements);
  reply.done_us = NowMicros();
  if (got.ok()) {
    reply.results = std::move(got).value();
  } else {
    reply.transport = got.status();
  }
  if (spans_ != nullptr) {
    spans_->Add({RootSpanName(1, shape), shape, reply.sent_us,
                 reply.done_us - reply.sent_us, 1, conn_, request_id});
  }
  return reply;
}

void WireExecutor::SwitchTracer() {
  TraceSwitch s{NowMicros(), 0, !tracing_, false};
  Result<std::vector<Result<ResultSet>>> got =
      client_.Execute({s.on ? "\\trace on" : "\\trace off"});
  s.done_us = NowMicros();
  s.ok = got.ok() && got.value().size() == 1 && got.value()[0].ok();
  if (s.ok) tracing_ = s.on;
  spans_->AddSwitch(s);
  next_switch_us_ = s.done_us + window_us_;
}

// --- ReplayExecutor ---

namespace {

std::vector<std::string> Tokens(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> out;
  std::string token;
  while (stream >> token) out.push_back(token);
  return out;
}

ResultSet TextResult(std::string column, std::string text) {
  ResultSet rs;
  rs.column_names.push_back(std::move(column));
  rs.rows.push_back({Value::String(std::move(text))});
  return rs;
}

/// The rest of `line` after its first two tokens (command and table).
std::string AfterTable(const std::string& line,
                       const std::vector<std::string>& args) {
  const size_t at = line.find(args[1], args[0].size()) + args[1].size();
  return std::string(fungusdb::StripWhitespace(line.substr(at)));
}

}  // namespace

const char* RootSpanName(int pid, Shape shape) {
  static const char* const kClient[] = {
      "client.count", "client.agg",     "client.group",
      "client.project", "client.write", "client.tick",
      "client.consume", "client.check", "client.setup"};
  static const char* const kReplay[] = {
      "replay.count", "replay.agg",     "replay.group",
      "replay.project", "replay.write", "replay.tick",
      "replay.consume", "replay.check", "replay.setup"};
  return (pid == 1 ? kClient : kReplay)[static_cast<int>(shape)];
}

void ReplayExecutor::AddSpan(const char* name, Shape shape, int64_t start_us,
                             uint64_t request_id, uint64_t rows,
                             const ResultSet* exec) {
  if (spans_ == nullptr) return;
  Span span{name, shape, start_us, NowMicros() - start_us, 2, conn_,
            request_id, rows};
  if (exec != nullptr) {
    span.matched = exec->stats.rows_matched;
    span.segments_scanned = exec->stats.segments_scanned;
    span.segments_pruned = exec->stats.segments_pruned;
  }
  spans_->Add(span);
}

Reply ReplayExecutor::Run(Shape shape,
                          const std::vector<std::string>& statements) {
  Reply reply;
  const uint64_t request_id =
      (static_cast<uint64_t>(conn_) << 32) | next_request_++;
  fungusdb::server::StatementRequest request;
  request.request_id = request_id;
  request.statements = statements;
  const std::string payload = fungusdb::server::EncodeStatementRequest(request);

  reply.sent_us = NowMicros();
  int64_t t = NowMicros();
  Result<fungusdb::server::StatementRequest> decoded =
      fungusdb::server::DecodeStatementRequest(payload);
  AddSpan("server.decode", shape, t, request_id, statements.size());
  if (!decoded.ok()) {
    reply.transport = decoded.status();
    reply.done_us = NowMicros();
    return reply;
  }
  fungusdb::server::StatementResponse response;
  response.request_id = request_id;
  for (const std::string& statement : decoded.value().statements) {
    response.results.push_back(Execute(shape, statement, request_id));
  }
  uint64_t rows = 0;
  for (const auto& r : response.results) {
    if (r.ok()) rows += r.value().num_rows();
  }
  // Encoded only to time it: the replay hands back the results as they are.
  t = NowMicros();
  const std::string encoded =
      fungusdb::server::EncodeStatementResponse(response);
  AddSpan("server.encode", shape, t, request_id, rows);
  reply.done_us = NowMicros();
  if (spans_ != nullptr) {
    spans_->Add({RootSpanName(2, shape), shape, reply.sent_us,
                 reply.done_us - reply.sent_us, 2, conn_, request_id});
  }
  reply.results = std::move(response.results);
  return reply;
}

Result<ResultSet> ReplayExecutor::Execute(Shape shape,
                                          const std::string& statement,
                                          uint64_t request_id) {
  if (statement.empty() || statement[0] != '\\') {
    int64_t t = NowMicros();
    Result<fungusdb::Query> query = fungusdb::ParseQuery(statement);
    AddSpan("query.parse", shape, t, request_id);
    if (!query.ok()) return query.status();
    t = NowMicros();
    Result<ResultSet> rs = query.value().consuming
                               ? db_->Execute(query.value())
                               : session_.ExecuteRead(query.value());
    AddSpan("core.exec", shape, t, request_id,
            rs.ok() ? rs.value().stats.rows_scanned : 0,
            rs.ok() ? &rs.value() : nullptr);
    return rs;
  }

  const std::vector<std::string> args = Tokens(statement);
  const std::string& cmd = args[0];
  if (cmd == "\\insert" && args.size() >= 3) {
    int64_t t = NowMicros();
    FUNGUSDB_ASSIGN_OR_RETURN(fungusdb::TableHandle table,
                              db_->GetTable(args[1]));
    const std::vector<std::string> fields =
        fungusdb::SplitCsvLine(AfterTable(statement, args), ',');
    const fungusdb::Schema& schema = table.schema();
    if (fields.size() != schema.num_fields()) {
      return Status::InvalidArgument("field count mismatch");
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      const fungusdb::Field& field = schema.fields()[i];
      FUNGUSDB_ASSIGN_OR_RETURN(
          Value v, fungusdb::ParseCsvField(fields[i], field.type,
                                           field.nullable));
      values.push_back(std::move(v));
    }
    AddSpan("server.insert_parse", shape, t, request_id);
    t = NowMicros();
    Result<fungusdb::RowId> row = db_->Insert(args[1], values);
    AddSpan("core.insert", shape, t, request_id, 1);
    if (!row.ok()) return row.status();
    ResultSet rs;
    rs.column_names = {"row_id"};
    rs.rows.push_back({Value::Int64(static_cast<int64_t>(row.value()))});
    return rs;
  }
  if (cmd == "\\advance" && args.size() == 2) {
    FUNGUSDB_ASSIGN_OR_RETURN(fungusdb::Duration d,
                              fungusdb::ParseDuration(args[1]));
    const int64_t t = NowMicros();
    Result<uint64_t> ticks = db_->AdvanceTime(d);
    AddSpan("fungus.advance", shape, t, request_id,
            ticks.ok() ? ticks.value() : 0);
    if (!ticks.ok()) return ticks.status();
    ResultSet rs;
    rs.column_names = {"now", "ticks"};
    rs.rows.push_back({Value::String(fungusdb::FormatDuration(db_->Now())),
                       Value::Int64(static_cast<int64_t>(ticks.value()))});
    return rs;
  }
  if (cmd == "\\tables") {
    ResultSet rs;
    rs.column_names = {"table", "schema", "live_rows"};
    for (const std::string& name : db_->TableNames()) {
      FUNGUSDB_ASSIGN_OR_RETURN(fungusdb::TableHandle t, db_->GetTable(name));
      rs.rows.push_back({Value::String(name),
                         Value::String(t.schema().ToString()),
                         Value::Int64(static_cast<int64_t>(t.live_rows()))});
    }
    return rs;
  }
  if (cmd == "\\create" && args.size() >= 3) {
    FUNGUSDB_ASSIGN_OR_RETURN(fungusdb::Schema schema,
                              fungusdb::Schema::Parse(
                                  AfterTable(statement, args)));
    FUNGUSDB_RETURN_IF_ERROR(
        db_->CreateTable(args[1], std::move(schema)).status());
    return TextResult("created", args[1]);
  }
  if (cmd == "\\attach" && args.size() == 5) {
    FUNGUSDB_ASSIGN_OR_RETURN(fungusdb::Duration period,
                              fungusdb::ParseDuration(args[3]));
    FUNGUSDB_ASSIGN_OR_RETURN(
        std::unique_ptr<fungusdb::Fungus> fungus,
        fungusdb::MakeFungusFromSpec(args[1], args[4], db_->Now()));
    FUNGUSDB_RETURN_IF_ERROR(
        db_->AttachFungus(args[2], std::move(fungus), period).status());
    return TextResult("attached", args[2]);
  }
  if (cmd == "\\freeze" && args.size() == 3) {
    FUNGUSDB_RETURN_IF_ERROR(db_->SetFreezeAfterIdleTicks(
        args[1], std::strtoull(args[2].c_str(), nullptr, 10)));
    return TextResult("freeze", args[1]);
  }
  return Status::InvalidArgument("not replayed in-process: " + cmd);
}

// --- Scrapes ---

Scrape ParseScrape(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

Scrape TakeScrape(Executor& exec) {
  const Reply reply = exec.Run(Shape::kCheck, {"\\metrics prom"});
  if (!reply.transport.ok() || reply.results.size() != 1 ||
      !reply.results[0].ok() || reply.results[0].value().num_rows() != 1) {
    return {};
  }
  const Value& text = reply.results[0].value().at(0, 0);
  return text.is_null() ? Scrape{} : ParseScrape(text.AsString());
}

double CounterDelta(const Scrape& before, const Scrape& after,
                    const std::string& series) {
  auto value = [&series](const Scrape& s) {
    auto it = s.find(series);
    return it == s.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

double HistogramQuantile(const Scrape& before, const Scrape& after,
                         const std::string& name, const std::string& labels,
                         double q) {
  // Finite bucket bounds present in either scrape -> cumulative counts.
  const std::string prefix =
      name + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  auto buckets = [&prefix](const Scrape& s) {
    std::map<double, double> out;
    for (auto it = s.lower_bound(prefix);
         it != s.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      const std::string le = it->first.substr(prefix.size());
      if (le.rfind("+Inf", 0) == 0) continue;
      out[std::atof(le.c_str())] = it->second;
    }
    return out;
  };
  const std::map<double, double> b0 = buckets(before);
  const std::map<double, double> b1 = buckets(after);
  // A bound missing from a scrape holds the cumulative count of the
  // largest printed bound below it (empty buckets are not printed).
  auto cumulative = [](const std::map<double, double>& b, double le) {
    auto it = b.upper_bound(le);
    return it == b.begin() ? 0.0 : std::prev(it)->second;
  };
  const std::string count_series =
      name + "_count" + (labels.empty() ? "" : "{" + labels + "}");
  const double total = CounterDelta(before, after, count_series);
  if (total <= 0) return std::nan("");
  const double target = q * total;
  double lower = 0, below = 0;
  for (const auto& [le, unused] : b1) {
    const double cum = cumulative(b1, le) - cumulative(b0, le);
    if (cum >= target && cum > below) {
      return lower + (le - lower) * (target - below) / (cum - below);
    }
    lower = le;
    below = cum;
  }
  return lower;  // in the unbounded overflow bucket
}

}  // namespace fungusbench
