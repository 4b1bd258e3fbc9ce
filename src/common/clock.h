#ifndef FUNGUSDB_COMMON_CLOCK_H_
#define FUNGUSDB_COMMON_CLOCK_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace fungusdb {

/// Timestamps and durations are microseconds since an arbitrary epoch,
/// stored as signed 64-bit integers. The paper's per-tuple `t` column and
/// the fungus clock period `T` both use this unit.
using Timestamp = int64_t;
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

/// Renders a duration as a compact human string, e.g. "2d3h" or "450ms".
std::string FormatDuration(Duration d);

/// Parses compact duration strings: concatenated <number><unit> parts
/// with units d/h/m/s/ms/us, e.g. "2d3h", "90m", "450ms", "10s".
/// The inverse of FormatDuration.
Result<Duration> ParseDuration(std::string_view text);

/// Wall-clock microseconds from std::chrono::steady_clock, for timing
/// real work (statements, ticks, lock waits). Unrelated to the virtual
/// clock below.
int64_t SteadyMicros();

/// Source of time. Fungi, schedulers, and ingestion read time only
/// through this interface so experiments can run on virtual time.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since the clock's epoch.
  virtual Timestamp Now() const = 0;
};

/// Manually-advanced clock. The default for tests and benchmarks: decay
/// over "30 days" runs in milliseconds of wall time and is exactly
/// reproducible.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(Timestamp start = 0) : now_(start) {}

  Timestamp Now() const override { return now_; }

  /// Moves time forward by `d` (>= 0).
  void Advance(Duration d);

  /// Jumps to an absolute time (must not move backwards).
  void SetTime(Timestamp t);

 private:
  Timestamp now_;
};

/// Wall-clock time (CLOCK_MONOTONIC-based, offset to start near 0).
class SystemClock : public Clock {
 public:
  SystemClock();

  Timestamp Now() const override;

 private:
  Timestamp epoch_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_CLOCK_H_
