// Where the generator's requests go: over the wire to a spawned fungusd
// (WireExecutor), or through the same public functions in-process
// (ReplayExecutor, for the traced pass's per-layer timings).
#ifndef FUNGUSBENCH_EXECUTOR_H_
#define FUNGUSBENCH_EXECUTOR_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/mutex.h"
#include "fungusdb/client.h"
#include "fungusdb/database.h"

namespace fungusbench {

/// A fungusd child process pinned to `cpus`, listening on an ephemeral
/// port. The destructor stops it (SIGTERM, then SIGKILL after 10 s) and
/// reaps it; the child also dies with the generator (PR_SET_PDEATHSIG).
class Daemon {
 public:
  static std::unique_ptr<Daemon> Start(const std::string& binary,
                                       const std::string& work_dir,
                                       int read_workers,
                                       const std::vector<int>& cpus,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  /// VmRSS of the daemon, in MiB.
  double RssMb() const;
  /// Stops the daemon; true when it exited cleanly with status 0.
  bool Stop();

 private:
  Daemon(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}
  pid_t pid_;
  uint16_t port_;
};

/// One span of the traced pass, in Chrome trace-event terms.
struct Span {
  const char* name;  // static storage
  Shape shape;
  int64_t start_us;
  int64_t dur_us;
  int pid;  // 1 = wire pass (client side), 2 = in-process replay
  int tid;  // connection index
  uint64_t request_id;
  /// What the call processed: statements decoded, rows encoded, rows
  /// scanned by an execution, ticks run by an advance.
  uint64_t rows = 0;
  /// Executions only: rows matched, segments scanned and pruned.
  uint64_t matched = 0;
  uint64_t segments_scanned = 0;
  uint64_t segments_pruned = 0;
};

/// "client.<shape>" / "replay.<shape>", with static storage.
const char* RootSpanName(int pid, Shape shape);

/// One `\trace on|off` sent to fungusd: the tracer is in the new state
/// from `done_us` on, and in the old one until `sent_us`.
struct TraceSwitch {
  int64_t sent_us;
  int64_t done_us;
  bool on;
  bool ok;
};

/// Spans stay in memory until the run ends; executors on several
/// threads append to one log.
class SpanLog {
 public:
  void Add(Span span) {
    fungusdb::MutexLock lock(mu_);
    spans_.push_back(std::move(span));
  }
  void AddSwitch(TraceSwitch s) {
    fungusdb::MutexLock lock(mu_);
    switches_.push_back(s);
  }
  std::vector<Span> Take() {
    fungusdb::MutexLock lock(mu_);
    return std::move(spans_);
  }
  std::vector<TraceSwitch> TakeSwitches() {
    fungusdb::MutexLock lock(mu_);
    return std::move(switches_);
  }

 private:
  fungusdb::Mutex mu_;
  std::vector<Span> spans_ FUNGUS_GUARDED_BY(mu_);
  std::vector<TraceSwitch> switches_ FUNGUS_GUARDED_BY(mu_);
};

/// The answer to one request: a transport failure, or one result per
/// statement, with the client-side send and receive times.
struct Reply {
  fungusdb::Status transport;
  std::vector<fungusdb::Result<fungusdb::ResultSet>> results;
  int64_t sent_us = 0;
  int64_t done_us = 0;
};

class Executor {
 public:
  virtual ~Executor() = default;
  /// Executes one request (a batch of statements, in order).
  virtual Reply Run(Shape shape, const std::vector<std::string>& statements) = 0;
};

/// One fungusd connection. With a span log, every call is recorded as a
/// root span `client.<shape>`.
class WireExecutor : public Executor {
 public:
  WireExecutor(fungusdb::server::Client client, uint16_t port, int conn,
               SpanLog* spans)
      : client_(std::move(client)), port_(port), conn_(conn), spans_(spans) {}
  Reply Run(Shape shape, const std::vector<std::string>& statements) override;

  /// From now on, before the first request of every `window_us`, switches
  /// fungusd's tracer to the other state and logs the switch in the span
  /// log (which must be set). 0 stops switching.
  void AlternateTracing(int64_t window_us) {
    window_us_ = window_us;
    next_switch_us_ = 0;
  }

 private:
  void SwitchTracer();

  fungusdb::server::Client client_;
  uint16_t port_;
  int conn_;
  SpanLog* spans_;
  uint64_t next_request_ = 1;
  int64_t window_us_ = 0;
  int64_t next_switch_us_ = 0;
  bool tracing_ = false;  // fungusd starts with its tracer off
};

/// Runs what fungusd would run for each request, in-process, through the
/// public functions: DecodeStatementRequest, ParseQuery,
/// Session::ExecuteRead, Database::Execute / Insert / AdvanceTime and
/// EncodeStatementResponse. Each call is a child span of a root span
/// `replay.<shape>` carrying the same request id as the wire call.
/// Reads go through this executor's own Session, like a read worker;
/// everything else goes to the Database, like the writer.
class ReplayExecutor : public Executor {
 public:
  ReplayExecutor(fungusdb::Database* db, int conn, SpanLog* spans)
      : db_(db), session_(db), conn_(conn), spans_(spans) {}
  Reply Run(Shape shape, const std::vector<std::string>& statements) override;

 private:
  fungusdb::Result<fungusdb::ResultSet> Execute(Shape shape,
                                                const std::string& statement,
                                                uint64_t request_id);
  void AddSpan(const char* name, Shape shape, int64_t start_us,
               uint64_t request_id, uint64_t rows = 0,
               const fungusdb::ResultSet* exec = nullptr);

  fungusdb::Database* db_;
  fungusdb::Session session_;
  int conn_;
  SpanLog* spans_;
  uint64_t next_request_ = 1;
};

/// A parsed `\metrics prom` scrape: series text (name plus labels, as
/// printed) to value.
using Scrape = std::map<std::string, double>;
Scrape ParseScrape(const std::string& text);
Scrape TakeScrape(Executor& exec);

/// Increase of a counter series between two scrapes.
double CounterDelta(const Scrape& before, const Scrape& after,
                    const std::string& series);
/// Quantile of the observations a histogram gained between two scrapes,
/// interpolated inside FungusDB's power-of-two buckets. `labels` is the
/// label set without `le` (e.g. `table="readings"`), empty for the
/// unlabeled series. NaN when nothing was observed.
double HistogramQuantile(const Scrape& before, const Scrape& after,
                         const std::string& name, const std::string& labels,
                         double q);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_EXECUTOR_H_
