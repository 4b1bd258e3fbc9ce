#include "core/rw_lock.h"

namespace fungusdb {
namespace {

/// Per-thread count of read locks held across all RwLocks. Only the
/// gate against *waiting* writers consults it (a thread that already
/// holds a read lock must be allowed to re-lock, or it would deadlock
/// with the very writer that is waiting for it to finish); the
/// writer-active check is never bypassed, so a false positive from a
/// read lock on a different RwLock costs a moment of writer fairness,
/// never correctness.
thread_local size_t tls_read_locks_held = 0;

}  // namespace

// The bodies below implement the lock capability itself, so they lie
// to the thread safety analysis by design (a condvar wait releases and
// reacquires mu_ invisibly; the "rw_lock" capability the annotations
// advertise is the refcount/flag state, not a lock the analysis can
// see). FUNGUS_NO_THREAD_SAFETY_ANALYSIS on these definitions is the
// documented escape hatch for locking primitives — capability_audit.py
// keeps it from spreading beyond this file.

RwLock::ReadLock::ReadLock(RwLock& lock) FUNGUS_NO_THREAD_SAFETY_ANALYSIS
    : lock_(&lock) {
  MutexLock guard(lock.mu_);
  if (lock.writer_active_ &&
      lock.writer_thread_ == std::this_thread::get_id()) {
    // The active writer is already exclusive; a no-op read lock lets
    // writer-side code call read-locked helpers without deadlock.
    lock_ = nullptr;
    return;
  }
  while (lock.writer_active_ ||
         (lock.waiting_writers_ > 0 && tls_read_locks_held == 0)) {
    lock.readable_.Wait(lock.mu_);
  }
  ++lock.active_readers_;
  ++tls_read_locks_held;
}

RwLock::ReadLock::~ReadLock() FUNGUS_NO_THREAD_SAFETY_ANALYSIS {
  if (lock_ == nullptr) return;
  bool wake_writer = false;
  {
    MutexLock guard(lock_->mu_);
    --lock_->active_readers_;
    --tls_read_locks_held;
    wake_writer = lock_->active_readers_ == 0 && lock_->waiting_writers_ > 0;
  }
  if (wake_writer) lock_->writable_.NotifyOne();
}

RwLock::WriteLock::WriteLock(RwLock& lock) FUNGUS_NO_THREAD_SAFETY_ANALYSIS
    : lock_(lock) {
  MutexLock guard(lock.mu_);
  ++lock.waiting_writers_;
  while (lock.writer_active_ || lock.active_readers_ > 0) {
    lock.writable_.Wait(lock.mu_);
  }
  --lock.waiting_writers_;
  lock.writer_active_ = true;
  lock.writer_thread_ = std::this_thread::get_id();
}

RwLock::WriteLock::~WriteLock() FUNGUS_NO_THREAD_SAFETY_ANALYSIS {
  uint64_t published = 0;
  {
    MutexLock guard(lock_.mu_);
    lock_.writer_active_ = false;
    published = lock_.epoch_.fetch_add(1, std::memory_order_release) + 1;
  }
  lock_.ExportEpochGauge(published);
  // Wake a waiting writer first (writer preference) and every blocked
  // reader — the wait loops sort out who proceeds.
  lock_.writable_.NotifyOne();
  lock_.readable_.NotifyAll();
}

uint64_t RwLock::Publish() {
  const uint64_t published =
      epoch_.fetch_add(1, std::memory_order_release) + 1;
  ExportEpochGauge(published);
  return published;
}

void RwLock::ExportEpochGauge(uint64_t epoch) {
  if (metrics_ != nullptr) {
    metrics_->SetGauge("fungusdb.exec.epoch", static_cast<double>(epoch));
  }
}

}  // namespace fungusdb
