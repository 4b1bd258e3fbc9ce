// The traced run: per-layer metrics for one workload and seed.
//
// Two passes over the same statement stream, each half of --seconds:
//   1. wire pass — every client call is a root span, fungusd's tracer is
//      switched on and off in alternate windows, and fungusd's counters
//      and histograms are scraped around the timed phase;
//   2. in-process replay — the same requests through the public
//      functions fungusd calls, one child span per call, sharing the
//      wire call's request id.
// Tracing overhead is the traced windows' round trips minus the untraced
// ones, in the same daemon process. A shape's self-time table splits its
// traced round trip into the replayed layers, fungusd's queue and pin
// waits, and what is left: socket, framing and the client. That
// remainder is checked against the floor (a trivial `\now` round trip)
// plus the overhead, so the split can fail to explain a round trip.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lifetime.h"

namespace fungusbench {
namespace {

constexpr size_t kTraceFileSpans = 20000;

/// Spans that start inside a lifetime's timed phase.
std::vector<Span> TimedSpans(std::vector<Span> spans, const Lifetime& lt) {
  std::erase_if(spans, [&lt](const Span& s) {
    return s.start_us < lt.timed_begin_us || s.start_us >= lt.timed_end_us;
  });
  return spans;
}

/// The wire root spans whose whole round trip ran with fungusd's tracer
/// in state `on`. A span that overlaps a switch, or starts before the
/// first one, is in neither half. `switches` are in time order.
std::vector<Span> InState(const std::vector<Span>& spans,
                          const std::vector<TraceSwitch>& switches, bool on) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    // The first switch not yet done when the span began.
    auto next = std::upper_bound(
        switches.begin(), switches.end(), s.start_us,
        [](int64_t t, const TraceSwitch& sw) { return t < sw.done_us; });
    if (next == switches.begin() || std::prev(next)->on != on) continue;
    if (next != switches.end() && next->sent_us <= s.start_us + s.dur_us) {
      continue;
    }
    out.push_back(s);
  }
  return out;
}

/// Per-request sums of the spans called `name`, for one shape: a write
/// request holds hundreds of core.insert calls, and its layer time is
/// their sum.
std::vector<double> PerRequest(const std::vector<Span>& spans, Shape shape,
                               const std::string& name) {
  std::map<uint64_t, double> sums;
  for (const Span& s : spans) {
    if (s.shape == shape && name == s.name) {
      sums[s.request_id] += static_cast<double>(s.dur_us);
    }
  }
  std::vector<double> out;
  for (const auto& [id, sum] : sums) out.push_back(sum);
  return out;
}

struct Totals {
  double us = 0;
  uint64_t calls = 0, rows = 0, matched = 0, seg_scanned = 0, seg_pruned = 0;
};

Totals Sum(const std::vector<Span>& spans, const std::string& name,
           const std::set<Shape>& shapes) {
  Totals t;
  for (const Span& s : spans) {
    if (name != s.name || shapes.count(s.shape) == 0) continue;
    t.us += static_cast<double>(s.dur_us);
    ++t.calls;
    t.rows += s.rows;
    t.matched += s.matched;
    t.seg_scanned += s.segments_scanned;
    t.seg_pruned += s.segments_pruned;
  }
  return t;
}

double Ratio(double num, double den) {
  return den > 0 ? num / den : std::nan("");
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& wire,
                      const std::vector<Span>& replay) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::vector<Span>& spans) {
    for (size_t i = 0; i < spans.size() && i < kTraceFileSpans; ++i) {
      const Span& s = spans[i];
      out << (first ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"fungusbench\",\"ph\":\"X\",\"ts\":" << s.start_us
          << ",\"dur\":" << s.dur_us << ",\"pid\":" << s.pid
          << ",\"tid\":" << s.tid << ",\"args\":{\"request\":" << s.request_id
          << ",\"shape\":\"" << ShapeName(s.shape) << "\",\"rows\":" << s.rows
          << "}}";
      first = false;
    }
  };
  emit(wire);
  emit(replay);
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace

int RunTraced(const Options& opt) {
  const double slice = opt.seconds / 2;
  SpanLog wire_log;
  const Lifetime traced = RunLifetime(opt, Mode::kWireTraced, slice, &wire_log);
  // The replay is fungusd's work done in-process: it runs on fungusd's
  // CPUs, with the database's default thread pool, like the daemon.
  SpanLog replay_log;
  PinTo(DaemonCpus());
  const Lifetime replay = RunLifetime(opt, Mode::kReplay, slice, &replay_log);
  PinTo({0});

  const std::vector<TraceSwitch> switches = wire_log.TakeSwitches();
  uint64_t attempted = 0, failed = 0;
  for (const Lifetime* lt : {&traced, &replay}) {
    attempted += lt->setup.statements + lt->timed.statements;
    failed += lt->setup.failed + lt->timed.failed;
    std::string why = lt->wrong();
    if (why.empty() && lt == &traced &&
        std::any_of(switches.begin(), switches.end(),
                    [](const TraceSwitch& s) { return !s.ok; })) {
      why = "\\trace on|off failed";
    }
    if (!why.empty()) {
      std::fprintf(stderr, "fungusbench: traced run: %s\n", why.c_str());
      PrintResult(false, std::max<uint64_t>(attempted, 1), failed, {});
      return 1;
    }
  }
  const std::vector<Span> wire = TimedSpans(wire_log.Take(), traced);
  const std::vector<Span> wire_on = InState(wire, switches, true);
  const std::vector<Span> wire_off = InState(wire, switches, false);
  const std::vector<Span> rep = TimedSpans(replay_log.Take(), replay);
  const Scrape& b = traced.before;
  const Scrape& a = traced.after;
  auto hq = [&](const std::string& name, const std::string& labels,
                double q) { return HistogramQuantile(b, a, name, labels, q); };
  auto delta = [&](const std::string& series) {
    return CounterDelta(b, a, series);
  };
  auto p50 = [](const std::vector<double>& v) { return Median(v); };
  auto round_trip = [&p50](const std::vector<Span>& spans, Shape s) {
    return p50(PerRequest(spans, s, RootSpanName(1, s)));
  };

  const std::set<Shape> reads(std::begin(kReadShapes), std::end(kReadShapes));
  std::set<Shape> timed_shapes;
  for (const Span& s : wire) timed_shapes.insert(s.shape);
  double read_stmts = 0;
  for (const Span& s : wire) read_stmts += reads.count(s.shape) ? 1 : 0;
  const double ticks = delta("fungusdb_decay_ticks");

  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  // server
  add("server.queue_wait_p50_us", hq("fungusdb_server_queue_wait_us", "", 0.5),
      "us");
  add("server.queue_wait_p99_us",
      hq("fungusdb_server_queue_wait_us", "", 0.99), "us");
  add("server.statement_p50_us",
      hq("fungusdb_server_statement_latency_us", "", 0.5), "us");
  const double count_replay =
      p50(PerRequest(rep, Shape::kCount, RootSpanName(2, Shape::kCount)));
  const double count_untraced = round_trip(wire_off, Shape::kCount);
  add("server.wire_overhead_p50_us", count_untraced - count_replay, "us");
  const Totals encode = Sum(rep, "server.encode", reads);
  add("server.encode_us_per_row", Ratio(encode.us, encode.rows), "us");
  const Totals decode = Sum(rep, "server.decode", timed_shapes);
  add("server.decode_us_per_stmt", Ratio(decode.us, decode.rows), "us");
  add("server.overloaded", delta("fungusdb_server_requests_overloaded"),
      "count");
  // core
  add("core.pin_wait_p50_us", hq("fungusdb_query_pin_wait_us", "", 0.5), "us");
  add("core.pin_wait_p99_us", hq("fungusdb_query_pin_wait_us", "", 0.99),
      "us");
  for (Shape s : {Shape::kCount, Shape::kAgg, Shape::kGroup, Shape::kProject,
                  Shape::kConsume}) {
    add(std::string("core.exec_us.") + ShapeName(s),
        p50(PerRequest(rep, s, "core.exec")), "us");
  }
  const Totals insert = Sum(rep, "core.insert", timed_shapes);
  add("core.insert_us_per_row", Ratio(insert.us, insert.calls), "us");
  // query
  std::vector<double> parse;
  for (const Span& s : rep) {
    if (reads.count(s.shape) && std::string("query.parse") == s.name) {
      parse.push_back(static_cast<double>(s.dur_us));
    }
  }
  add("query.parse_us", p50(parse), "us");
  for (Shape s : kReadShapes) {
    const Totals exec = Sum(rep, "core.exec", {s});
    add(std::string("query.ns_per_row_scanned.") + ShapeName(s),
        Ratio(exec.us * 1000.0, exec.rows), "ns");
  }
  const Totals read_exec = Sum(rep, "core.exec", reads);
  add("query.rows_scanned_per_row_returned",
      Ratio(read_exec.rows, read_exec.matched), "ratio");
  add("query.segments_pruned_share",
      Ratio(read_exec.seg_pruned, read_exec.seg_pruned + read_exec.seg_scanned),
      "ratio");
  add("query.morsels_per_stmt",
      Ratio(delta("fungusdb_parallel_morsels_dispatched"), read_stmts),
      "count");
  // fungus
  const std::string table = "table=\"readings\"";
  add("fungus.tick_p50_us", hq("fungusdb_decay_tick_duration_us", table, 0.5),
      "us");
  add("fungus.tick_p99_us", hq("fungusdb_decay_tick_duration_us", table, 0.99),
      "us");
  add("fungus.advance_us", p50(PerRequest(rep, Shape::kTick, "fungus.advance")),
      "us");
  for (const char* c : {"tuples_touched", "tuples_killed", "segments_folded",
                        "segments_skipped", "rows_materialized"}) {
    add(std::string("fungus.") + c + "_per_tick",
        Ratio(delta(std::string("fungusdb_decay_") + c), ticks), "count");
  }
  // storage
  add("storage.frozen_segment_share",
      Ratio(static_cast<double>(replay.storage.frozen_segments),
            static_cast<double>(replay.storage.total_segments)),
      "ratio");
  add("storage.bytes_per_live_row",
      Ratio(static_cast<double>(replay.memory_bytes),
            static_cast<double>(replay.live_rows)),
      "B");
  add("storage.thaws_per_freeze",
      Ratio(static_cast<double>(replay.storage.thaw_count),
            static_cast<double>(replay.storage.segments_frozen_total)),
      "ratio");
  add("storage.decode_batches_per_stmt",
      Ratio(delta("fungusdb_storage_decode_batches"), read_stmts), "count");
  // generator and tracer
  add("generator.lateness_p50_us", Quantile(traced.timed.lateness_us, 0.5),
      "us");
  add("generator.lateness_p99_us", Quantile(traced.timed.lateness_us, 0.99),
      "us");
  add("trace.overhead_p50_us",
      round_trip(wire_on, Shape::kCount) - count_untraced, "us");

  // Self-time table: each shape's traced round trip p50, split into the
  // layers on its blocking path. Replayed layers are per-request sums;
  // queue and pin waits are fungusd's p50s over the pass. The remainder
  // wire+client explains the rest of the round trip only when it is no
  // larger than the floor plus the tracing overhead.
  const double queue = hq("fungusdb_server_queue_wait_us", "", 0.5);
  const double pin = hq("fungusdb_query_pin_wait_us", "", 0.5);
  const char* const layers[] = {"server.decode",       "query.parse",
                                "core.exec",           "server.insert_parse",
                                "core.insert",         "fungus.advance",
                                "server.encode"};
  std::printf("# self time per layer, p50 us (traced pass; replayed layers "
              "in-process)\n");
  std::printf("# %-8s %10s %10s %8s %8s", "shape", "round_trip", "untraced",
              "queue", "pin");
  for (const char* l : layers) std::printf(" %14s", l);
  std::printf(" %12s %8s %9s %9s\n", "wire+client", "floor", "overhead",
              "explained");
  int shapes = 0, explained = 0;
  for (Shape s : timed_shapes) {
    if (s == Shape::kCheck || s == Shape::kSetup) continue;
    const double rt = round_trip(wire_on, s);
    const double untraced = round_trip(wire_off, s);
    const double pin_s = reads.count(s) ? pin : 0.0;
    double attributed = queue + pin_s;
    std::printf("# %-8s %10.1f %10.1f %8.1f %8.1f", ShapeName(s), rt,
                untraced, queue, pin_s);
    for (const char* l : layers) {
      const std::vector<double> v = PerRequest(rep, s, l);
      const double x = v.empty() ? 0.0 : p50(v);
      attributed += x;
      std::printf(" %14.1f", x);
    }
    const double rest = rt - attributed;
    const double overhead = rt - untraced;
    const bool ok = std::fabs(rest) <= traced.floor_us + std::fabs(overhead);
    ++shapes;
    explained += ok ? 1 : 0;
    std::printf(" %12.1f %8.1f %9.1f %9s\n", rest, traced.floor_us, overhead,
                ok ? "yes" : "NO");
  }
  std::printf("# %d of %d shapes explained: |wire+client| <= floor + "
              "|overhead|\n",
              explained, shapes);

  const std::string base = opt.work_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed);
  WriteChromeTrace(base + ".json", wire, rep);
  std::ofstream(base + ".fungusd.json", std::ios::trunc) << traced.daemon_trace;
  std::printf("# chrome trace: %s.json (fungusd's own spans: %s.fungusd.json)\n",
              base.c_str(), base.c_str());

  PrintInfo(m);
  PrintResult(true, attempted, failed, m);
  return 0;
}

}  // namespace fungusbench
