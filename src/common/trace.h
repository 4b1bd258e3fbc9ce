#ifndef FUNGUSDB_COMMON_TRACE_H_
#define FUNGUSDB_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fungusdb {

/// One completed span. `name` must point at a string with static
/// storage duration (span sites pass literals), so events carry no
/// allocations and recording never touches the heap.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_us = 0;  // microseconds since the tracer epoch
  uint64_t dur_us = 0;
  uint64_t arg = 0;  // site-defined detail (segment count, ...)
  uint32_t tid = 0;  // tracer-assigned small thread id (1-based)
  bool has_arg = false;
};

/// Low-overhead span tracer behind FUNGUS_TRACE_SPAN.
///
/// Design: one fixed-capacity ring buffer per recording thread,
/// registered lazily on first span and owned by the tracer for the
/// process lifetime (events survive thread exit). Recording is
/// lock-free — the owning thread writes slots with relaxed atomic
/// stores and publishes with a release store of the head counter; no
/// recording path ever takes a lock or allocates. A snapshot reader
/// acquires the head and walks the last `kEventsPerThread` slots; an
/// event overwritten mid-read can mix fields from two spans, which is
/// acceptable for a diagnostic trace and, because every field is
/// individually atomic, never a data race.
///
/// When tracing is disabled a span site costs one relaxed atomic load
/// (single-digit nanoseconds); bench_t8_trace_overhead measures it.
/// Defining FUNGUSDB_TRACE_COMPILED_OUT compiles span sites out
/// entirely (the -DFUNGUSDB_TRACE=OFF build).
class Tracer {
 public:
  static constexpr size_t kEventsPerThread = 16384;

  /// The process-wide tracer used by FUNGUS_TRACE_SPAN.
  static Tracer& Global();

  static bool enabled() {
    return enabled_flag_.load(std::memory_order_relaxed);
  }
  void Enable() { enabled_flag_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_flag_.store(false, std::memory_order_relaxed); }

  /// Microseconds since the tracer epoch (steady clock; the epoch is
  /// captured on first use so timestamps start near zero).
  static uint64_t NowMicros();

  /// Records one completed span on the calling thread's ring.
  void Record(const char* name, uint64_t start_us, uint64_t dur_us,
              uint64_t arg, bool has_arg);

  /// Drops every recorded event (rings stay registered).
  void Clear();

  /// Merged copy of every thread's surviving events, in start order.
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome trace-event JSON (the Perfetto / catapult trace2html
  /// schema: name/cat/ph/ts/dur/pid/tid per event, ph "X" complete
  /// events, ts and dur in microseconds). Single line, newline
  /// terminated, loadable at https://ui.perfetto.dev.
  std::string ExportChromeJson() const;

  /// Events recorded since the last Clear(), including ones already
  /// overwritten in their ring.
  uint64_t events_recorded() const;

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> start_us{0};
    std::atomic<uint64_t> dur_us{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint8_t> has_arg{0};
  };

  struct ThreadBuffer {
    explicit ThreadBuffer(uint32_t tid_in) : tid(tid_in) {}
    std::vector<Slot> slots{kEventsPerThread};
    /// Total events ever written by the owning thread; slot index is
    /// head % kEventsPerThread. Store-release publishes the slot.
    std::atomic<uint64_t> head{0};
    const uint32_t tid;
  };

  Tracer() = default;

  /// The calling thread's ring, registering it on first use.
  ThreadBuffer& BufferForThisThread();

  static std::atomic<bool> enabled_flag_;

  mutable Mutex mu_;  // guards buffers_ registration and snapshots
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ FUNGUS_GUARDED_BY(mu_);
};

/// RAII span: captures the start time at construction when tracing is
/// enabled, records on destruction. A span started while enabled still
/// records if tracing is turned off mid-span (one stale event beats a
/// branch in every destructor).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::enabled()) {
      name_ = name;
      start_us_ = Tracer::NowMicros();
    }
  }
  TraceSpan(const char* name, uint64_t arg) : TraceSpan(name) {
    arg_ = arg;
    has_arg_ = true;
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::Global().Record(name_, start_us_,
                              Tracer::NowMicros() - start_us_, arg_,
                              has_arg_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  uint64_t arg_ = 0;
  bool has_arg_ = false;
};

}  // namespace fungusdb

#define FUNGUS_TRACE_CONCAT_INNER_(a, b) a##b
#define FUNGUS_TRACE_CONCAT_(a, b) FUNGUS_TRACE_CONCAT_INNER_(a, b)

#if defined(FUNGUSDB_TRACE_COMPILED_OUT)
#define FUNGUS_TRACE_SPAN(...) \
  do {                         \
  } while (false)
#else
/// FUNGUS_TRACE_SPAN("decay.tick") or FUNGUS_TRACE_SPAN("scan.morsel",
/// morsel_index): an anonymous RAII span covering the enclosing scope.
#define FUNGUS_TRACE_SPAN(...)                                      \
  ::fungusdb::TraceSpan FUNGUS_TRACE_CONCAT_(fungus_trace_span_at_, \
                                             __LINE__)(__VA_ARGS__)
#endif

#endif  // FUNGUSDB_COMMON_TRACE_H_
