// One daemon lifetime (or one in-process replay) of a workload, and the
// reporting shared by the end-to-end and the traced runs.
#ifndef FUNGUSBENCH_LIFETIME_H_
#define FUNGUSBENCH_LIFETIME_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "executor.h"
#include "workloads.h"

namespace fungusbench {

/// fungusd's read-worker pool: fixed, and enough for every workload's
/// concurrent readers.
inline constexpr int kReadWorkers = 2;
/// Daemon lifetimes per end-to-end run. Every end-to-end metric but
/// setup_s is the mean of the middle half of its lifetime values (see
/// MiddleMean); setup_s is their median.
inline constexpr int kLifetimes = 9;
/// The reference kernel's pass time (see SpeedProbe) on a machine of
/// reference speed: about its time on a 4-vCPU Xeon KVM guest. The
/// declared time metrics are scaled to that speed. The guest's speed
/// drifts by up to 2x over minutes, with every round trip and the kernel
/// alike, so a lifetime's set-up time and latencies are multiplied by
/// kReferenceKernelMicros over the kernel's median pass time in the same
/// interval (rates divided).
inline constexpr double kReferenceKernelMicros = 2000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string fungusd;
  std::string work_dir;
};

/// What one daemon lifetime (or one in-process replay) observed.
struct Lifetime {
  Recorder setup;  // load, warm-up and end-of-lifetime checks
  Recorder timed;
  double setup_s = 0;
  double timed_s = 0;
  int64_t timed_begin_us = 0;
  int64_t timed_end_us = 0;
  double rss_mb = std::nan("");
  // Untraced wire pass only: the speed probe's median pass time during
  // set-up and during the timed phase.
  double setup_kernel_us = std::nan("");
  double kernel_us = std::nan("");
  // Traced pass only: fungusd's metrics around the timed phase, its own
  // spans, and the p50 round trip of a trivial statement (`\now`) after
  // the timed phase, the floor of what the wire and the client cost.
  Scrape before, after;
  std::string daemon_trace;
  double floor_us = std::nan("");
  // Replay only: the final table, for the storage.* figures.
  fungusdb::StorageStats storage;
  uint64_t memory_bytes = 0;
  uint64_t live_rows = 0;
  std::string error;  // set when the lifetime could not run

  bool correct() const {
    return error.empty() && setup.wrong.empty() && timed.wrong.empty();
  }
  std::string wrong() const {
    return !error.empty()         ? error
           : !setup.wrong.empty() ? setup.wrong
                                  : timed.wrong;
  }
};

enum class Mode {
  kWire,  // a fresh fungusd, untraced
  // The same, with client root spans; fungusd's tracer is switched on and
  // off in alternate windows of kTraceWindowMicros during the timed phase,
  // so traced and untraced round trips come from one daemon process.
  kWireTraced,
  kReplay,  // in-process, through the public functions, with spans
};
inline constexpr int64_t kTraceWindowMicros = 500'000;

void PinTo(const std::vector<int>& cpus);
/// fungusd's CPUs: 1 and 2 (CPU 0 runs the generator).
std::vector<int> DaemonCpus();
/// Measures the machine's speed while a lifetime runs: a thread on a
/// CPU fungusd does not use runs a fixed kernel back to back, from
/// construction to destruction, and records each pass.
class SpeedProbe {
 public:
  SpeedProbe();
  ~SpeedProbe();
  /// Median time of the passes that ran within [from_us, to_us]; NaN
  /// when none did.
  double MedianMicros(int64_t from_us, int64_t to_us);

 private:
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<std::pair<int64_t, int64_t>> passes_;  // begin, end
  std::thread thread_;
};

/// Setup, then a timed phase of `slice_s` seconds, then checks.
Lifetime RunLifetime(const Options& opt, Mode mode, double slice_s,
                     SpanLog* spans);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A metric value with all its digits.
std::string Number(double v);
/// The benchmark's result: the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);
/// `metric <name> <value> <unit>` lines, for people and steady.py.
void PrintInfo(const std::vector<Metric>& metrics);

int RunEndToEnd(const Options& opt);
int RunTraced(const Options& opt);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_LIFETIME_H_
