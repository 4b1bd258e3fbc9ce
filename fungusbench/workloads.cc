#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <thread>

#include "model.h"

namespace fungusbench {

using fungusdb::ErrorCode;
using fungusdb::ResultSet;

const char* const kWorkloadNames[3] = {"scan_agg", "ingest_decay",
                                       "mixed_consume"};

// --- Recorder ---

bool Recorder::Account(const Reply& reply, size_t statements_sent) {
  statements += statements_sent;
  if (!reply.transport.ok() || reply.results.size() != statements_sent) {
    ++transport_errors;
    failed += statements_sent;
    return false;
  }
  bool all_ok = true;
  for (const auto& r : reply.results) {
    if (r.ok()) continue;
    all_ok = false;
    ++failed;
    if (r.status().error_code() == ErrorCode::kOverloaded) ++overloaded;
    if (r.status().error_code() == ErrorCode::kTimeout) ++timeouts;
  }
  return all_ok;
}

void Recorder::Latency(Shape shape, const Reply& reply, bool ok,
                       int64_t from_us) {
  latency_us[shape].push_back(
      ok ? static_cast<double>(reply.done_us - from_us)
         : std::numeric_limits<double>::infinity());
}

void Recorder::Merge(const Recorder& other) {
  for (const auto& [shape, v] : other.latency_us) {
    auto& mine = latency_us[shape];
    mine.insert(mine.end(), v.begin(), v.end());
  }
  lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                     other.lateness_us.end());
  round_rates.insert(round_rates.end(), other.round_rates.begin(),
                     other.round_rates.end());
  statements += other.statements;
  failed += other.failed;
  overloaded += other.overloaded;
  timeouts += other.timeouts;
  transport_errors += other.transport_errors;
  rows_ingested += other.rows_ingested;
  if (wrong.empty()) wrong = other.wrong;
}

namespace {

/// Sends one request and accounts for it; the result of its single
/// statement, or nullptr when anything failed.
const ResultSet* RunOne(Executor& exec, Shape shape, const std::string& sql,
                        Recorder& rec, Reply& reply) {
  reply = exec.Run(shape, {sql});
  if (!rec.Account(reply, 1)) return nullptr;
  return &reply.results[0].value();
}

/// Sends a request whose every statement must succeed (DDL, setup).
void MustRun(Executor& exec, const std::string& statement, Recorder& rec) {
  const Reply reply = exec.Run(Shape::kSetup, {statement});
  if (!rec.Account(reply, 1)) {
    rec.Wrong("setup statement failed: " + statement + ": " +
              (reply.transport.ok() && !reply.results.empty()
                   ? reply.results[0].status().ToString()
                   : reply.transport.ToString()));
  }
}

std::vector<std::string> InsertBatch(const std::vector<Row>& rows,
                                     size_t begin, size_t end) {
  std::vector<std::string> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.push_back(InsertStatement(rows[i]));
  return out;
}

/// Live rows of `readings` from a `\tables` answer, or -1.
int64_t LiveRows(const ResultSet& rs) {
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    if (rs.at(i, 0).AsString() == "readings") return rs.at(i, 2).AsInt64();
  }
  return -1;
}

/// Runs one read, records its round trip and checks it against
/// `expected`.
void TimedRead(Executor& exec, const ReadQuery& q, Answer expected,
               Recorder& rec) {
  Reply reply;
  const ResultSet* rs = RunOne(exec, q.shape, q.sql, rec, reply);
  rec.Latency(q.shape, reply, rs != nullptr, reply.sent_us);
  std::string why;
  if (rs != nullptr && !CheckAnswer(q, *rs, std::move(expected), &why)) {
    rec.Wrong(why);
  }
}

// ---------------------------------------------------------------------
// scan_agg — the read path.
//
// Chosen because the engine's per-row tail (aggregate and project after
// the vectorized filter) does almost all of the work of these four
// statements, and that tail is what the columnar-aggregate work targets.
// Stresses: query parse/bind, zone-map pruning, the vectorized filter
// over 49 segments, aggregation, projection, result encoding. (Reads on
// fungusd's read workers scan serially: a Session runs without the
// morsel pool, which query.morsels_per_stmt = 0 confirms.) Bypasses:
// writes, epoch
// contention, decay, freezing. One connection, closed loop; the table is
// static after the load, so every round sees the same state. Its only
// writes are the load's \insert batches, which is where its write_*
// figures come from.
// ---------------------------------------------------------------------
class ScanAgg : public Workload {
 public:
  static constexpr size_t kRows = 200'000;
  static constexpr size_t kLoadBatch = 200;
  static constexpr int kVariants = 16;  // per shape
  static constexpr int kPerShapePerRound = 2;

  explicit ScanAgg(uint64_t seed)
      : seq_seed_(StreamSeed("scan_agg", seed, 3)) {
    Rng data(StreamSeed("scan_agg", seed, 1));
    rows_.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) rows_.push_back(RandomRow(data));
    Rng params(StreamSeed("scan_agg", seed, 2));
    for (Shape shape : kReadShapes) {
      for (int v = 0; v < kVariants; ++v) {
        queries_.push_back(RandomRead(shape, kSensors, params));
        answers_.push_back(Evaluate(queries_.back(), rows_));
      }
    }
  }

  void Setup(Env& env, Recorder& rec) override {
    MustRun(*env.main, kCreateTable, rec);
    for (size_t i = 0; i < kRows; i += kLoadBatch) {
      const std::vector<std::string> batch =
          InsertBatch(rows_, i, std::min(kRows, i + kLoadBatch));
      const Reply reply = env.main->Run(Shape::kWrite, batch);
      const bool ok = rec.Account(reply, batch.size());
      rec.Latency(Shape::kWrite, reply, ok, reply.sent_us);
      if (ok) rec.rows_ingested += batch.size();
    }
    // Warm-up: one variant of each shape, so the timed rounds start
    // with the daemon's allocator, caches and worker threads settled.
    for (size_t i = 0; i < queries_.size(); i += kVariants) {
      TimedRead(*env.main, queries_[i], answers_[i], rec);
    }
  }

  void Timed(Env& env, Recorder& rec) override {
    Rng seq(seq_seed_);
    const int64_t end = NowMicros() + static_cast<int64_t>(env.slice_s * 1e6);
    std::vector<size_t> round;
    while (NowMicros() < end) {
      // One round: kPerShapePerRound seeded variants of each shape, in a
      // seeded order.
      round.clear();
      for (int s = 0; s < 4; ++s) {
        for (int k = 0; k < kPerShapePerRound; ++k) {
          round.push_back(static_cast<size_t>(s * kVariants) +
                          static_cast<size_t>(seq.Uniform(kVariants)));
        }
      }
      for (size_t i = round.size(); i > 1; --i) {
        std::swap(round[i - 1],
                  round[static_cast<size_t>(seq.Uniform(
                      static_cast<int64_t>(i)))]);
      }
      const int64_t begin = NowMicros();
      const uint64_t before = rec.statements;
      for (size_t i : round) TimedRead(*env.main, queries_[i], answers_[i], rec);
      rec.EndRound(begin, before);
    }
  }

 private:
  uint64_t seq_seed_;
  std::vector<Row> rows_;
  std::vector<ReadQuery> queries_;
  std::vector<Answer> answers_;
};

// ---------------------------------------------------------------------
// ingest_decay — the write path and Law 1.
//
// Chosen because it is the short-lived-data setting: rows arrive in large
// batches and a retention fungus kills them once they leave the window.
// Stresses: request decode, \insert parsing, Database::Insert, the decay
// tick (plan, apply, kill, uniform fold, freeze of idle segments), and
// reads over the surviving relation, which double as the correctness
// check after every tick. Bypasses: large scans (the window holds 40k
// rows) and reader/writer contention (one connection, closed loop).
//
// A cycle inserts kBatchesPerCycle batches at one virtual instant, then
// advances the clock by one tick period. Retention is 10.5 periods, so
// after the tick exactly the last kWindowCycles cycles are alive — no
// row ever sits on the retention boundary. The warm-up runs until that
// equilibrium holds and several freeze passes have run.
// ---------------------------------------------------------------------
class IngestDecay : public Workload {
 public:
  static constexpr size_t kBatch = 500;
  static constexpr int kBatchesPerCycle = 8;
  static constexpr size_t kWindowCycles = 10;
  static constexpr int kWarmupCycles = 4 * kWindowCycles;

  explicit IngestDecay(uint64_t seed)
      : data_(StreamSeed("ingest_decay", seed, 1)),
        reads_(StreamSeed("ingest_decay", seed, 2)) {}

  void Setup(Env& env, Recorder& rec) override {
    MustRun(*env.main, kCreateTable, rec);
    MustRun(*env.main, "\\attach retention readings 60s 630s", rec);
    MustRun(*env.main, "\\freeze readings 2", rec);
    for (int c = 0; c < kWarmupCycles; ++c) Cycle(*env.main, rec);
  }

  void Timed(Env& env, Recorder& rec) override {
    const int64_t end = NowMicros() + static_cast<int64_t>(env.slice_s * 1e6);
    // Cycle wall times by the shape of the cycle's read. The reads differ
    // in cost, so single-cycle rates have four modes and their median
    // falls between two; the rate of a whole round of four cycles is a
    // mean that the write tail pulls. The one round rate recorded is a
    // typical round: one cycle of each shape, each at its median time.
    std::vector<double> cycle_us[4];
    uint64_t statements_per_cycle = 0;  // the same in every cycle
    while (NowMicros() < end) {
      const size_t shape = cycle_ % 4;
      const int64_t begin = NowMicros();
      const uint64_t before = rec.statements;
      Cycle(*env.main, rec);
      cycle_us[shape].push_back(static_cast<double>(NowMicros() - begin));
      statements_per_cycle = rec.statements - before;
    }
    double round_us = 0;
    for (const std::vector<double>& v : cycle_us) round_us += Median(v);
    rec.round_rates.push_back(4.0 * static_cast<double>(statements_per_cycle) *
                              1e6 / round_us);
  }

 private:
  void Cycle(Executor& exec, Recorder& rec) {
    std::vector<Row> rows;
    rows.reserve(kBatch * kBatchesPerCycle);
    for (size_t i = 0; i < kBatch * kBatchesPerCycle; ++i) {
      rows.push_back(RandomRow(data_));
    }
    for (size_t i = 0; i < rows.size(); i += kBatch) {
      const std::vector<std::string> batch = InsertBatch(rows, i, i + kBatch);
      const Reply reply = exec.Run(Shape::kWrite, batch);
      const bool ok = rec.Account(reply, batch.size());
      rec.Latency(Shape::kWrite, reply, ok, reply.sent_us);
      if (ok) rec.rows_ingested += batch.size();
    }
    window_.insert(window_.end(), rows.begin(), rows.end());
    cycle_sizes_.push_back(rows.size());

    Reply reply;
    const ResultSet* tick =
        RunOne(exec, Shape::kTick, "\\advance 60s", rec, reply);
    rec.Latency(Shape::kTick, reply, tick != nullptr, reply.sent_us);
    if (tick != nullptr && tick->at(0, 1).AsInt64() != 1) {
      rec.Wrong("\\advance 60s ran " +
                std::to_string(tick->at(0, 1).AsInt64()) + " ticks, not 1");
    }
    while (cycle_sizes_.size() > kWindowCycles) {
      window_.erase(window_.begin(),
                    window_.begin() +
                        static_cast<std::ptrdiff_t>(cycle_sizes_.front()));
      cycle_sizes_.pop_front();
    }

    // Law 1 check: the live count is exactly the rows inserted inside
    // the retention window.
    const ResultSet* tables = RunOne(exec, Shape::kCheck, "\\tables", rec, reply);
    if (tables != nullptr &&
        LiveRows(*tables) != static_cast<int64_t>(window_.size())) {
      rec.Wrong("live rows " + std::to_string(LiveRows(*tables)) +
                " after a tick, but the retention window holds " +
                std::to_string(window_.size()));
    }
    // One read per cycle, the shapes in turn, so the writes dominate.
    const ReadQuery q = RandomRead(kReadShapes[cycle_++ % 4], kSensors, reads_);
    TimedRead(exec, q, Evaluate(q, window_), rec);
  }

  Rng data_;
  Rng reads_;
  size_t cycle_ = 0;
  std::deque<Row> window_;
  std::deque<size_t> cycle_sizes_;
};

// ---------------------------------------------------------------------
// mixed_consume — reads and writes sharing the epoch lock, and Law 2.
//
// Chosen because EpochManager is a writer-preferring reader/writer lock:
// long read pins delay the writer and queued writes delay readers. A
// faster scan or a lock-free segment list shows here as lower write
// latency; a read-path gain that costs the writer shows here too.
// Stresses: read pins against \insert write sections, the writer queue,
// CONSUME (kill by predicate). Bypasses: decay and freezing.
//
// The writer is open loop: slot j is due at t0 + j * kSlotMicros and is
// timed from that due time, so a stalled writer cannot hide queueing
// (its lateness is reported too). Every kConsumeEvery-th slot consumes
// all rows of one sensor, cycling through kConsumeSensors sensors, so
// the table stays near kInsertBatch * kConsumeSensors * kConsumeEvery / 2
// rows. The warm-up runs two whole consume cycles closed loop. Readers
// run the four read shapes closed loop on their own connections.
// ---------------------------------------------------------------------
class MixedConsume : public Workload {
 public:
  static constexpr int64_t kConsumeSensors = 32;
  static constexpr size_t kInsertBatch = 40;
  static constexpr int kConsumeEvery = 50;
  static constexpr int64_t kSlotMicros = 10'000;
  static constexpr int kReaders = 1;
  static constexpr int kWarmupCycles = 2;  // whole consume cycles
  static constexpr int kReaderVariants = 4;  // per shape

  explicit MixedConsume(uint64_t seed)
      : seed_(seed), data_(StreamSeed("mixed_consume", seed, 1)) {
    Rng params(StreamSeed("mixed_consume", seed, 2));
    for (Shape shape : kReadShapes) {
      for (int v = 0; v < kReaderVariants; ++v) {
        queries_.push_back(RandomRead(shape, kConsumeSensors, params));
      }
    }
    by_sensor_.resize(kConsumeSensors);
    tracked_.assign(queries_.size(), 0.0);
  }

  void Setup(Env& env, Recorder& rec) override {
    MustRun(*env.main, kCreateTable, rec);
    // The slot stream, closed loop, with the insert slots between two
    // consumes sent as one request: the table ends exactly as slot by
    // slot would leave it, in 40x fewer round trips. Slot by slot, setup
    // time followed how fast the machine woke an idle CPU.
    std::vector<Row> pending;
    for (int j = 0; j < kWarmupCycles * kConsumeSensors * kConsumeEvery; ++j) {
      if (NextIsConsume()) {
        SendInserts(*env.main, rec, pending, NowMicros());
        pending.clear();
        SendConsume(*env.main, rec, NowMicros());
      } else {
        const std::vector<Row> rows = NextInsertRows();
        pending.insert(pending.end(), rows.begin(), rows.end());
      }
    }
    SendInserts(*env.main, rec, pending, NowMicros());
  }

  void Timed(Env& env, Recorder& rec) override {
    const int64_t slots = static_cast<int64_t>(env.slice_s * 1e6) / kSlotMicros;
    log_.clear();
    log_.reserve(static_cast<size_t>(slots));
    initial_ = tracked_;

    std::vector<Reader> readers(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers[r].conn = env.connect(1 + r);
      // env.connect has recorded why; the lifetime ends with that error.
      if (readers[r].conn == nullptr) return;
      readers[r].seq = Rng(StreamSeed("mixed_consume", seed_, 10 + r));
    }
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    if (!env.serial) {
      for (Reader& reader : readers) {
        threads.emplace_back([this, &reader, &stop] {
          while (!stop.load(std::memory_order_acquire)) ReaderStep(reader);
        });
      }
    }

    const int64_t t0 = NowMicros() + 1000;
    for (int64_t j = 0; j < slots; ++j) {
      const int64_t due = t0 + j * kSlotMicros;
      for (size_t r = 0; env.serial && NowMicros() < due; ++r) {
        ReaderStep(readers[r % readers.size()]);
      }
      while (NowMicros() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<int64_t>(due - NowMicros(), 500)));
      }
      Slot(*env.main, rec, due, &log_);
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    for (const Reader& reader : readers) {
      rec.Merge(reader.rec);
      CheckReaders(reader.calls, rec);
    }
  }

  void Finish(Env& env, Recorder& rec) override {
    // Law 2 check: every inserted row is either still live or was
    // consumed, exactly once.
    Reply reply;
    const ResultSet* rs = RunOne(*env.main, Shape::kCheck,
                                 "SELECT count(*) AS n FROM readings", rec,
                                 reply);
    const int64_t live = rs == nullptr ? -1 : rs->at(0, 0).AsInt64();
    if (live != inserted_ - consumed_ || live != ModelLive()) {
      rec.Wrong("live " + std::to_string(live) + " + consumed " +
                std::to_string(consumed_) + " != inserted " +
                std::to_string(inserted_));
    }
  }

 private:
  struct SlotLog {
    int64_t sent_us, done_us;
    std::vector<double> tracked;  // model answers after the slot
  };
  struct ReaderCall {
    size_t variant;
    int64_t sent_us, done_us;
    double answer;
  };
  struct Reader {
    std::unique_ptr<Executor> conn;
    Rng seq{0};
    int64_t next = 0;
    Recorder rec;
    std::vector<ReaderCall> calls;
    int64_t round_begin_us = 0;
    uint64_t round_statements = 0;
  };

  /// One closed-loop read: the four shapes in turn, a seeded variant of
  /// each. Count and sum answers are kept for CheckReaders. Every four
  /// reads close a round; the workload's throughput is the reader's
  /// median round rate, since the writer's rate is fixed by its schedule.
  void ReaderStep(Reader& reader) {
    if (reader.next % 4 == 0) {
      reader.round_begin_us = NowMicros();
      reader.round_statements = reader.rec.statements;
    }
    const size_t v = static_cast<size_t>((reader.next++ % 4) * kReaderVariants +
                                         reader.seq.Uniform(kReaderVariants));
    const ReadQuery& q = queries_[v];
    Reply reply;
    const ResultSet* rs = RunOne(*reader.conn, q.shape, q.sql, reader.rec,
                                 reply);
    reader.rec.Latency(q.shape, reply, rs != nullptr, reply.sent_us);
    if (rs != nullptr && rs->num_rows() == 1 &&
        (q.shape == Shape::kCount || q.shape == Shape::kAgg) &&
        !rs->at(0, 0).is_null()) {
      const fungusdb::Value& x = rs->at(0, 0);
      reader.calls.push_back({v, reply.sent_us, reply.done_us,
                              x.type() == fungusdb::DataType::kInt64
                                  ? static_cast<double>(x.AsInt64())
                                  : x.AsFloat64()});
    }
    if (reader.next % 4 == 0) {
      reader.rec.EndRound(reader.round_begin_us, reader.round_statements);
    }
  }

  int64_t ModelLive() const {
    int64_t n = 0;
    for (const auto& rows : by_sensor_) n += static_cast<int64_t>(rows.size());
    return n;
  }

  /// Model scalar of tracked variant `v` for one row: 1 for a matching
  /// count, the value for a matching agg, 0 otherwise.
  double Contribution(size_t v, const Row& row) const {
    const ReadQuery& q = queries_[v];
    if (!Matches(q, row)) return 0;
    if (q.shape == Shape::kCount) return 1;
    if (q.shape == Shape::kAgg) return static_cast<double>(row.value_q) / 4.0;
    return 0;
  }

  bool NextIsConsume() const {
    return slot_ % kConsumeEvery == kConsumeEvery - 1;
  }

  /// The rows of the next slot, an insert slot.
  std::vector<Row> NextInsertRows() {
    ++slot_;
    std::vector<Row> rows;
    rows.reserve(kInsertBatch);
    for (size_t i = 0; i < kInsertBatch; ++i) {
      rows.push_back(RandomRowForSensor(data_, data_.Uniform(kConsumeSensors)));
    }
    return rows;
  }

  /// Inserts `rows` in one request, timed from `due_us`.
  Reply SendInserts(Executor& exec, Recorder& rec,
                    const std::vector<Row>& rows, int64_t due_us) {
    if (rows.empty()) return {};
    Reply reply = exec.Run(Shape::kWrite, InsertBatch(rows, 0, rows.size()));
    const bool ok = rec.Account(reply, rows.size());
    rec.Latency(Shape::kWrite, reply, ok, due_us);
    if (!ok) {
      // A partly applied batch would make the model unknowable.
      rec.Wrong("insert batch failed; the table no longer matches the model");
      return reply;
    }
    rec.rows_ingested += rows.size();
    inserted_ += static_cast<int64_t>(rows.size());
    for (const Row& row : rows) {
      by_sensor_[static_cast<size_t>(row.sensor)].push_back(row);
      for (size_t v = 0; v < tracked_.size(); ++v) {
        tracked_[v] += Contribution(v, row);
      }
    }
    return reply;
  }

  /// The next slot, a consume slot: CONSUME every row of one sensor,
  /// timed from `due_us`.
  Reply SendConsume(Executor& exec, Recorder& rec, int64_t due_us) {
    const int64_t sensor = (slot_++ / kConsumeEvery) % kConsumeSensors;
    const std::string sql =
        "CONSUME SELECT sensor, value FROM readings WHERE sensor = " +
        std::to_string(sensor);
    Reply reply;
    const ResultSet* rs = RunOne(exec, Shape::kConsume, sql, rec, reply);
    rec.Latency(Shape::kConsume, reply, rs != nullptr, due_us);
    if (rs == nullptr) return reply;
    std::vector<Row>& rows = by_sensor_[static_cast<size_t>(sensor)];
    if (rs->stats.rows_consumed != static_cast<uint64_t>(rows.size())) {
      rec.Wrong("CONSUME of sensor " + std::to_string(sensor) + " took " +
                std::to_string(rs->stats.rows_consumed) +
                " rows; the model holds " + std::to_string(rows.size()));
    }
    consumed_ += static_cast<int64_t>(rs->stats.rows_consumed);
    for (const Row& row : rows) {
      for (size_t v = 0; v < tracked_.size(); ++v) {
        tracked_[v] -= Contribution(v, row);
      }
    }
    rows.clear();
    return reply;
  }

  /// One timed writer slot: an insert batch, or every kConsumeEvery-th
  /// slot a CONSUME of one sensor.
  void Slot(Executor& exec, Recorder& rec, int64_t due_us,
            std::vector<SlotLog>* log) {
    const Reply reply = NextIsConsume()
                            ? SendConsume(exec, rec, due_us)
                            : SendInserts(exec, rec, NextInsertRows(), due_us);
    if (log != nullptr) {
      rec.lateness_us.push_back(static_cast<double>(reply.sent_us - due_us));
      log->push_back({reply.sent_us, reply.done_us, tracked_});
    }
  }

  /// A reader's count or sum must equal the model at some instant between
  /// its send and its reply: at least every slot acknowledged before the
  /// send, at most every slot sent before the reply. Insert batches only
  /// add rows with non-negative values, so the states a batch passes
  /// through lie between its endpoints.
  void CheckReaders(const std::vector<ReaderCall>& calls, Recorder& rec) {
    for (const ReaderCall& c : calls) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      auto consider = [&](const std::vector<double>& state) {
        lo = std::min(lo, state[c.variant]);
        hi = std::max(hi, state[c.variant]);
      };
      // State index -1 is the state the timed phase began in.
      int64_t first = -1;
      for (size_t j = 0; j < log_.size() && log_[j].done_us < c.sent_us; ++j) {
        first = static_cast<int64_t>(j);
      }
      if (first < 0) consider(initial_);
      for (size_t j = static_cast<size_t>(std::max<int64_t>(first, 0));
           j < log_.size() && log_[j].sent_us <= c.done_us; ++j) {
        consider(log_[j].tracked);
      }
      if (c.answer < lo || c.answer > hi) {
        rec.Wrong("reader " + queries_[c.variant].sql + " answered " +
                  std::to_string(c.answer) + ", outside the model's [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
        return;
      }
    }
  }

  uint64_t seed_;
  Rng data_;
  std::vector<ReadQuery> queries_;
  std::vector<std::vector<Row>> by_sensor_;
  std::vector<double> tracked_;  // model answer per read variant
  std::vector<double> initial_;
  std::vector<SlotLog> log_;
  int64_t slot_ = 0;
  int64_t inserted_ = 0;
  int64_t consumed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "scan_agg") return std::make_unique<ScanAgg>(seed);
  if (name == "ingest_decay") return std::make_unique<IngestDecay>(seed);
  if (name == "mixed_consume") return std::make_unique<MixedConsume>(seed);
  return nullptr;
}

}  // namespace fungusbench
