#include "lifetime.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

namespace fungusbench {
namespace {

constexpr int kFloorSamples = 200;

/// p50 round trip of `\now`, a read meta that touches no table; NaN when
/// one of them failed.
double FloorMicros(Executor& exec) {
  std::vector<double> v;
  for (int i = 0; i < kFloorSamples; ++i) {
    const Reply r = exec.Run(Shape::kCheck, {"\\now"});
    if (!r.transport.ok() || r.results.size() != 1 || !r.results[0].ok()) {
      return std::nan("");
    }
    v.push_back(static_cast<double>(r.done_us - r.sent_us));
  }
  return Median(v);
}

}  // namespace

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

std::vector<int> DaemonCpus() {
  // Two CPUs, 1 and 2: the writer and a reader can run side by side,
  // and the remaining CPU absorbs the machine's own work. Given three or
  // four CPUs, fungusd's read latencies switched between two levels
  // (filtered count over 200k rows: 7 ms or 11 ms) for seconds at a
  // time; on two they stayed at one.
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (n >= 3) return {1, 2};
  return {static_cast<int>(n - 1)};
}

namespace {

/// The CPU the speed probe runs on: the first one neither the generator
/// nor fungusd uses, so nothing fungusd does can slow the probe down; CPU
/// 0 on a machine with none to spare.
int ProbeCpu() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::vector<int> daemon = DaemonCpus();
  for (int cpu = 1; cpu < n; ++cpu) {
    if (std::find(daemon.begin(), daemon.end(), cpu) == daemon.end()) {
      return cpu;
    }
  }
  return 0;
}

}  // namespace

SpeedProbe::SpeedProbe() {
  thread_ = std::thread([this] {
    PinTo({ProbeCpu()});
    // A fixed column-scan-like pass: a filtered sum and a 64-way grouped
    // sum over 4 MB of seeded int64s.
    std::vector<int64_t> data(size_t{1} << 19);
    Rng rng(1);
    for (int64_t& e : data) e = static_cast<int64_t>(rng.Next() >> 1);
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t begin = NowMicros();
      int64_t sum = 0, count = 0;
      int64_t groups[64] = {};
      for (int64_t e : data) {
        if ((e & 1023) < 384) {
          sum += e >> 20;
          ++count;
        }
        groups[(e >> 7) & 63] += e & 0xffff;
      }
      // Keeps the pass from being optimized away.
      asm volatile("" : : "r"(sum), "r"(count), "r"(groups[count & 63])
                   : "memory");
      const int64_t end = NowMicros();
      std::lock_guard<std::mutex> lock(mu_);
      passes_.push_back({begin, end});
    }
  });
}

SpeedProbe::~SpeedProbe() {
  stop_.store(true);
  thread_.join();
}

double SpeedProbe::MedianMicros(int64_t from_us, int64_t to_us) {
  std::vector<double> us;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [begin, end] : passes_) {
    if (begin >= from_us && end <= to_us) {
      us.push_back(static_cast<double>(end - begin));
    }
  }
  return Median(us);
}

Lifetime RunLifetime(const Options& opt, Mode mode, double slice_s,
                     SpanLog* spans) {
  Lifetime lt;
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload, opt.seed);
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<fungusdb::Database> db;
  std::unique_ptr<Executor> main;
  WireExecutor* wire_main = nullptr;
  Env env;
  env.slice_s = slice_s;

  // The machine's speed through set-up and the timed phase (see
  // kReferenceKernelMicros).
  std::unique_ptr<SpeedProbe> probe;
  if (mode == Mode::kWire) probe = std::make_unique<SpeedProbe>();
  const int64_t t0 = NowMicros();
  if (mode == Mode::kReplay) {
    env.serial = true;
    db = std::make_unique<fungusdb::Database>();
    main = std::make_unique<ReplayExecutor>(db.get(), 0, spans);
    env.connect = [&db, spans](int conn) -> std::unique_ptr<Executor> {
      return std::make_unique<ReplayExecutor>(db.get(), conn, spans);
    };
  } else {
    daemon = Daemon::Start(opt.fungusd, opt.work_dir, kReadWorkers,
                           DaemonCpus(), &lt.error);
    if (daemon == nullptr) return lt;
    SpanLog* wire_spans = mode == Mode::kWireTraced ? spans : nullptr;
    const uint16_t port = daemon->port();
    auto connect = [port,
                    wire_spans](int conn) -> std::unique_ptr<WireExecutor> {
      fungusdb::Result<fungusdb::server::Client> client =
          fungusdb::server::Client::Connect("127.0.0.1", port);
      if (!client.ok()) return nullptr;
      return std::make_unique<WireExecutor>(std::move(client).value(), port,
                                            conn, wire_spans);
    };
    std::unique_ptr<WireExecutor> first = connect(0);
    wire_main = first.get();
    main = std::move(first);
    env.connect = [connect, &lt](int conn) -> std::unique_ptr<Executor> {
      std::unique_ptr<Executor> e = connect(conn);
      if (e == nullptr) lt.error = "cannot open connection to fungusd";
      return e;
    };
    if (main == nullptr) {
      lt.error = "cannot connect to fungusd";
      return lt;
    }
  }
  env.main = main.get();

  workload->Setup(env, lt.setup);
  lt.setup_s = static_cast<double>(NowMicros() - t0) / 1e6;
  if (mode == Mode::kWireTraced) {
    lt.before = TakeScrape(*main);
    wire_main->AlternateTracing(kTraceWindowMicros);
  }

  lt.timed_begin_us = NowMicros();
  if (lt.correct()) workload->Timed(env, lt.timed);
  lt.timed_end_us = NowMicros();
  if (probe != nullptr) {
    lt.setup_kernel_us = probe->MedianMicros(t0, lt.timed_begin_us);
    lt.kernel_us = probe->MedianMicros(lt.timed_begin_us, lt.timed_end_us);
    probe.reset();
  }
  lt.timed_s = static_cast<double>(lt.timed_end_us - lt.timed_begin_us) / 1e6;

  if (mode != Mode::kReplay) lt.rss_mb = daemon->RssMb();
  if (mode == Mode::kWireTraced) {
    wire_main->AlternateTracing(0);
    lt.after = TakeScrape(*main);
    // An empty scrape would read as every counter and histogram at 0.
    if (lt.error.empty() && (lt.before.empty() || lt.after.empty())) {
      lt.error = "\\metrics prom scrape failed";
    }
    lt.floor_us = FloorMicros(*main);
    if (lt.error.empty() && std::isnan(lt.floor_us)) {
      lt.error = "\\now failed";
    }
    const Reply dump = main->Run(Shape::kCheck, {"\\trace dump"});
    if (dump.transport.ok() && dump.results.size() == 1 &&
        dump.results[0].ok() && dump.results[0].value().num_rows() == 1) {
      lt.daemon_trace = dump.results[0].value().at(0, 0).AsString();
    }
  }
  workload->Finish(env, lt.setup);
  if (mode == Mode::kReplay) {
    fungusdb::Result<fungusdb::TableHandle> t = db->GetTable("readings");
    if (t.ok()) {
      lt.storage = t.value().storage_stats();
      lt.memory_bytes = t.value().memory_bytes();
      lt.live_rows = t.value().live_rows();
    }
  }
  main.reset();
  if (daemon != nullptr && !daemon->Stop() && lt.error.empty()) {
    lt.error = "fungusd did not shut down cleanly";
  }
  return lt;
}

// --- Reporting ---

std::string Number(double v) {
  // A refused or failed request is +infinity in its latency samples;
  // JSON has no infinity, so it prints as 1e12.
  if (!std::isfinite(v)) v = std::isnan(v) ? 0.0 : 1e12;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintInfo(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (std::isnan(m.value)) continue;
    std::printf("metric %s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace fungusbench
