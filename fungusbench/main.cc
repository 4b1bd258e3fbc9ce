// fungusbench_gen — drives a spawned fungusd over the wire with one of
// three seeded workloads and prints what a client sees.
//
//   fungusbench_gen --workload scan_agg --seed 1 --seconds 20 --trace 0
//       --fungusd <path to fungusd> --work-dir <scratch directory>
//
// --trace 0 runs several daemon lifetimes and reports the end-to-end
// metrics (pooled over lifetimes). --trace 1 runs a wire pass that
// switches fungusd's tracer on and off in alternate windows, plus an
// in-process replay of the same statement stream, and reports the
// per-layer metrics, a self-time table and a Chrome trace-event file.
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
//
// The generator runs on CPU 0, fungusd on CPUs 1 and 2 and the
// generator's speed probe on CPU 3, so none competes with another for a
// core.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "executor.h"
#include "lifetime.h"
#include "workloads.h"

namespace fungusbench {
namespace {

/// The end-to-end figures of one lifetime. Latencies in ms.
std::vector<Metric> EndToEnd(const Lifetime& lt) {
  const auto& lat = lt.timed.latency_us;
  auto shape = [&lat](Shape s) {
    auto it = lat.find(s);
    return it == lat.end() ? std::vector<double>{} : it->second;
  };
  const double ms = 1e-3;
  // Set-up time, round trips and rates at the reference speed; the
  // figures as measured are printed too, as raw.<name>.
  const double setup_slow = lt.setup_kernel_us / kReferenceKernelMicros;
  const double slow = lt.kernel_us / kReferenceKernelMicros;
  // scan_agg's timed phase has no writes; its write figures come from
  // the \insert batches of its load, at the speed during set-up.
  std::vector<double> writes = shape(Shape::kWrite);
  double write_slow = slow;
  if (writes.empty()) {
    auto it = lt.setup.latency_us.find(Shape::kWrite);
    if (it != lt.setup.latency_us.end()) writes = it->second;
    write_slow = setup_slow;
  }
  const std::vector<Metric> timings = {
      {"setup_s", lt.setup_s / setup_slow, "s"},
      {"stmts_per_s", Median(lt.timed.round_rates) * slow, "1/s"},
      {"count_p50_ms", Quantile(shape(Shape::kCount), 0.5) * ms / slow, "ms"},
      {"count_p99_ms", Quantile(shape(Shape::kCount), 0.99) * ms / slow, "ms"},
      {"agg_p50_ms", Quantile(shape(Shape::kAgg), 0.5) * ms / slow, "ms"},
      {"group_p50_ms", Quantile(shape(Shape::kGroup), 0.5) * ms / slow, "ms"},
      {"project_p50_ms", Quantile(shape(Shape::kProject), 0.5) * ms / slow,
       "ms"},
      {"write_p50_ms", Quantile(writes, 0.5) * ms / write_slow, "ms"},
      {"write_p99_ms", Quantile(writes, 0.99) * ms / write_slow, "ms"},
      // Reported, but not in BENCHMARK.json: not every workload has
      // them.
      {"tick_p50_ms", Quantile(shape(Shape::kTick), 0.5) * ms / slow, "ms"},
      {"consume_p50_ms", Quantile(shape(Shape::kConsume), 0.5) * ms / slow,
       "ms"},
      {"rows_ingested_per_s",
       static_cast<double>(lt.timed.rows_ingested) / lt.timed_s * slow,
       "1/s"},
  };
  std::vector<Metric> out = timings;
  for (const Metric& m : timings) {
    const double f = m.name == "setup_s"                  ? setup_slow
                     : m.name.rfind("write_", 0) == 0 ? write_slow
                                                        : slow;
    out.push_back({"raw." + m.name, m.unit == "1/s" ? m.value / f : m.value * f,
                   m.unit});
  }
  const std::vector<Metric> rest = {
      {"server_rss_mb", lt.rss_mb, "MB"},
      {"kernel_us", lt.kernel_us, "us"},
      {"setup_kernel_us", lt.setup_kernel_us, "us"},
      // Reported, but not in BENCHMARK.json: 0 on a healthy run.
      {"error_share",
       lt.timed.statements == 0
           ? 0.0
           : static_cast<double>(lt.timed.failed) /
                 static_cast<double>(lt.timed.statements),
       "ratio"},
      {"failed.overloaded", static_cast<double>(lt.timed.overloaded), "count"},
      {"failed.timeout", static_cast<double>(lt.timed.timeouts), "count"},
      {"failed.connection", static_cast<double>(lt.timed.transport_errors),
       "count"},
      // The open-loop generator's own schedule: not scaled.
      {"lateness_p50_ms", Quantile(lt.timed.lateness_us, 0.5) * ms, "ms"},
      {"lateness_p99_ms", Quantile(lt.timed.lateness_us, 0.99) * ms, "ms"},
      // Sample counts behind the percentiles.
      {"samples.count", static_cast<double>(shape(Shape::kCount).size()),
       "count"},
      {"samples.agg", static_cast<double>(shape(Shape::kAgg).size()), "count"},
      {"samples.group", static_cast<double>(shape(Shape::kGroup).size()),
       "count"},
      {"samples.project", static_cast<double>(shape(Shape::kProject).size()),
       "count"},
      {"samples.write", static_cast<double>(writes.size()), "count"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// The end-to-end metrics BENCHMARK.json declares; the rest are printed
/// as information only.
const char* const kDeclaredEndToEnd[] = {
    "setup_s",        "stmts_per_s",  "count_p50_ms",
    "agg_p50_ms",     "group_p50_ms", "project_p50_ms",
    "write_p50_ms",   "server_rss_mb"};

}  // namespace

int RunEndToEnd(const Options& opt) {
  std::vector<std::vector<Metric>> per_lifetime;
  uint64_t attempted = 0, failed = 0;
  const double slice = opt.seconds / kLifetimes;
  for (int i = 0; i < kLifetimes; ++i) {
    const Lifetime lt = RunLifetime(opt, Mode::kWire, slice, nullptr);
    attempted += lt.setup.statements + lt.timed.statements;
    failed += lt.setup.failed + lt.timed.failed;
    if (!lt.correct()) {
      std::fprintf(stderr, "fungusbench: lifetime %d: %s\n", i,
                   lt.wrong().c_str());
      PrintResult(false, std::max<uint64_t>(attempted, 1), failed, {});
      return 1;
    }
    per_lifetime.push_back(EndToEnd(lt));
    std::printf("# lifetime %d:", i);
    for (const Metric& m : per_lifetime.back()) {
      if (!std::isnan(m.value)) {
        std::printf(" %s=%s", m.name.c_str(), Number(m.value).c_str());
      }
    }
    std::printf("\n");
  }
  // Pooled over lifetimes. What the reference-speed scaling leaves of the
  // machine's drift still differs from one lifetime to the next: a median
  // over lifetimes picks one of them, while the mean of the middle half
  // averages five and still drops outlying processes. Set-up time is the
  // median over lifetimes.
  std::vector<Metric> all;
  for (size_t k = 0; k < per_lifetime[0].size(); ++k) {
    std::vector<double> v;
    for (const auto& lt : per_lifetime) v.push_back(lt[k].value);
    const std::string& name = per_lifetime[0][k].name;
    const bool setup = name == "setup_s" || name == "raw.setup_s";
    double value = setup ? Median(v) : MiddleMean(v);
    // fungusd's RSS settles at one of two levels 1 MB apart, by process,
    // with no outliers to drop: the mean over all lifetimes spreads least.
    if (name == "server_rss_mb") {
      value = std::accumulate(v.begin(), v.end(), 0.0) /
              static_cast<double>(v.size());
    }
    all.push_back({name, value, per_lifetime[0][k].unit});
  }
  PrintInfo(all);
  std::vector<Metric> declared;
  for (const char* name : kDeclaredEndToEnd) {
    for (const Metric& m : all) {
      if (m.name == name) declared.push_back(m);
    }
  }
  PrintResult(true, attempted, failed, declared);
  return 0;
}

}  // namespace fungusbench

int main(int argc, char** argv) {
  using fungusbench::Options;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = std::atoi(value.c_str());
    } else if (flag == "--fungusd") {
      opt.fungusd = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      std::fprintf(stderr, "fungusbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool known =
      std::find(std::begin(fungusbench::kWorkloadNames),
                std::end(fungusbench::kWorkloadNames),
                opt.workload) != std::end(fungusbench::kWorkloadNames);
  if (!known || opt.fungusd.empty() || opt.work_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload scan_agg|ingest_decay|mixed_consume "
                 "--seed n --seconds s --trace 0|1 --fungusd path "
                 "--work-dir dir\n",
                 argv[0]);
    return 2;
  }
  fungusbench::PinTo({0});
  return opt.trace != 0 ? fungusbench::RunTraced(opt)
                        : fungusbench::RunEndToEnd(opt);
}
