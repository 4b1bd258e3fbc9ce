// The three workloads. Each is a pure function of (workload, seed): the
// same seed sends the same statements, in the same order per
// connection, to a fresh fungusd every daemon lifetime.
#ifndef FUNGUSBENCH_WORKLOADS_H_
#define FUNGUSBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "executor.h"

namespace fungusbench {

/// What one phase of one lifetime observed, from the client side.
struct Recorder {
  /// Round trips per shape, microseconds; from the due time for the
  /// open-loop writer. A request with a failed statement records
  /// +infinity: it misses every latency limit.
  std::map<Shape, std::vector<double>> latency_us;
  /// Open-loop generator lateness: send time - due time.
  std::vector<double> lateness_us;
  uint64_t statements = 0;
  uint64_t failed = 0;  // every statement that did not succeed
  uint64_t overloaded = 0;
  uint64_t timeouts = 0;
  uint64_t transport_errors = 0;
  uint64_t rows_ingested = 0;
  /// Statements per second of each round of a closed-loop client (in
  /// mixed_consume, of the reader; in ingest_decay, one typical round).
  /// Its median is the workload's throughput: a stall of the machine (not
  /// of fungusd) during one round cannot move it.
  std::vector<double> round_rates;
  /// First wrong answer; empty while every answer matched the model.
  std::string wrong;

  /// Counts the statements of `reply` and its failures; true when every
  /// statement succeeded.
  bool Account(const Reply& reply, size_t statements_sent);
  /// Records the reply's round trip (or +infinity when it failed).
  void Latency(Shape shape, const Reply& reply, bool ok, int64_t from_us);
  /// Closes a round that began at `begin_us` when `statements_before`
  /// statements had been counted.
  void EndRound(int64_t begin_us, uint64_t statements_before) {
    round_rates.push_back(static_cast<double>(statements - statements_before) *
                          1e6 / static_cast<double>(NowMicros() - begin_us));
  }
  void Wrong(const std::string& why) {
    if (wrong.empty()) wrong = why;
  }
  void Merge(const Recorder& other);
};

/// Connections of one lifetime. `main` is connection 0; `connect(k)`
/// opens connection k (k >= 1) for workloads with several clients.
struct Env {
  Executor* main = nullptr;
  std::function<std::unique_ptr<Executor>(int)> connect;
  double slice_s = 1.0;  // length of the timed phase
  /// Run every connection's statements on the calling thread. The
  /// in-process replay sets it: there a reader thread re-pins the epoch
  /// lock the instant it finishes a read, with no wire round trip in
  /// between, and starves the writer as no client of fungusd can.
  bool serial = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Creates and loads the table, then warms up to the steady table
  /// state the timed phase runs in.
  virtual void Setup(Env& env, Recorder& rec) = 0;
  /// The timed phase: whole rounds of fixed work until `slice_s` is
  /// spent. Every round starts from the same steady state, so what a
  /// round measures does not depend on how fast earlier rounds ran.
  virtual void Timed(Env& env, Recorder& rec) = 0;
  /// End-of-lifetime checks on the final table state.
  virtual void Finish(Env& env, Recorder& rec) { (void)env, (void)rec; }
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);
extern const char* const kWorkloadNames[3];

}  // namespace fungusbench

#endif  // FUNGUSBENCH_WORKLOADS_H_
