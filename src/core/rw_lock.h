#ifndef FUNGUSDB_CORE_RW_LOCK_H_
#define FUNGUSDB_CORE_RW_LOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fungusdb {

/// The database lock behind the split execution model (DESIGN.md §13):
/// a writer-preferring reader/writer lock with a published version
/// counter. One writer at a time owns the total order over mutations
/// (inserts, DDL, decay ticks, CONSUME), while any number of readers
/// run concurrently against the single live version.
///
/// A writer waits for every read lock to drain, mutates exclusively,
/// and publishes the next epoch when it unlocks. Readers therefore
/// never observe a half-applied decay tick or a torn insert — the state
/// is immutable while any read lock is held, which is what keeps
/// `__freshness` predicates, zone-map pruning, and ResultSet::Stats
/// exactly as deterministic as the single-threaded facade.
///
/// Writer preference: once a writer is waiting, new top-level read
/// locks queue behind it, so a read-heavy workload cannot starve decay
/// ticks. Read locks are reentrant (a thread already holding one
/// re-locks without queueing — readers cannot deadlock with a waiting
/// writer), and the active writer thread may take a no-op read lock (it
/// is already exclusive).
///
/// The lock is a CAPABILITY for Clang's Thread Safety Analysis:
/// ReadLock acquires it shared, WriteLock exclusive, and APIs inside
/// the locked region carry FUNGUS_REQUIRES_SHARED / FUNGUS_REQUIRES —
/// so a reader path calling a writer API is a compile error under
/// -Wthread-safety, not a TSan repro. The guards are the only way to
/// take the lock, and their constructors are [[nodiscard]]: a
/// temporary that locks and unlocks in one statement fails the -Werror
/// build.
///
///   RwLock::ReadLock read_lock(db.lock());  // shared
///   RwLock::WriteLock write_lock(lock_);    // exclusive
class FUNGUS_CAPABILITY("rw_lock") RwLock {
 public:
  /// Shared hold on the current version; released on destruction.
  /// Blocks while a writer is active or waiting, unless this thread
  /// already holds a read lock or IS the active writer — both enter
  /// without queueing.
  class FUNGUS_SCOPED_CAPABILITY ReadLock {
   public:
    [[nodiscard]] explicit ReadLock(RwLock& lock)
        FUNGUS_ACQUIRE_SHARED(lock);
    ReadLock(const ReadLock&) = delete;
    ReadLock& operator=(const ReadLock&) = delete;
    ~ReadLock() FUNGUS_RELEASE_GENERIC();

   private:
    RwLock* lock_;  // null for the active writer's no-op read lock
  };

  /// Exclusive hold; blocks until every read lock drains. Not
  /// reentrant, and a thread holding a ReadLock must not take one.
  /// Destruction publishes the next epoch (every write section makes a
  /// new version observable) and wakes readers.
  class FUNGUS_SCOPED_CAPABILITY WriteLock {
   public:
    [[nodiscard]] explicit WriteLock(RwLock& lock) FUNGUS_ACQUIRE(lock);
    WriteLock(const WriteLock&) = delete;
    WriteLock& operator=(const WriteLock&) = delete;
    ~WriteLock() FUNGUS_RELEASE();

   private:
    RwLock& lock_;
  };

  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  /// The current published epoch (monotone; bumped on every write
  /// section release and on every mid-section Publish).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Publishes an intermediate epoch from inside an active write
  /// section — the decay scheduler calls this after each tick's apply
  /// phase, so every tick is its own epoch even when one AdvanceTime
  /// replays many. Readers cannot lock mid-section; the bump is visible
  /// the moment the section ends. Callers must hold the WriteLock;
  /// unannotated because the scheduler reaches it through a stored
  /// callback the analysis cannot see through.
  uint64_t Publish();

  /// Sink for the "fungusdb.exec.epoch" gauge (not owned; may be null).
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  void ExportEpochGauge(uint64_t epoch);

  Mutex mu_;
  CondVar readable_;
  CondVar writable_;
  std::atomic<uint64_t> epoch_{0};
  size_t active_readers_ FUNGUS_GUARDED_BY(mu_) = 0;
  size_t waiting_writers_ FUNGUS_GUARDED_BY(mu_) = 0;
  bool writer_active_ FUNGUS_GUARDED_BY(mu_) = false;
  std::thread::id writer_thread_ FUNGUS_GUARDED_BY(mu_);
  // Set once at Database construction, before any concurrency exists;
  // capability_audit.py carries the justified-allowlist entry.
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_RW_LOCK_H_
