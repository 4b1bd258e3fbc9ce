#ifndef FUNGUSDB_COMMON_MUTEX_H_
#define FUNGUSDB_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace fungusdb {

/// The project mutex: std::mutex wearing the FUNGUS_CAPABILITY badge so
/// Clang's Thread Safety Analysis can check FUNGUS_GUARDED_BY fields
/// against it. Raw std::mutex is banned outside this header
/// (capability_audit.py `raw-mutex` rule) because the analysis cannot
/// see through an unannotated lock — every acquisition would be
/// invisible and every guarded access would look like a race.
///
/// Zero-cost: the wrapper is a std::mutex plus inline forwarding, and
/// every annotation macro expands to nothing outside clang.
class FUNGUS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FUNGUS_ACQUIRE() { mu_.lock(); }
  void Unlock() FUNGUS_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock — the only way code outside this header takes a Mutex.
/// Scoped-capability form keeps acquire/release visibly paired for the
/// analysis; an early-out path can still drop the lock in a nested
/// block, exactly like std::lock_guard.
class FUNGUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FUNGUS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FUNGUS_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex. Deliberately predicate-free: callers
/// write the standard
///
///   MutexLock lock(mu_);
///   while (!condition) cv_.Wait(mu_);
///
/// loop themselves, so the guarded reads in `condition` sit in the
/// caller's body where the analysis can see the held lock (a predicate
/// lambda would be analyzed as a separate, lock-blind function), and
/// the spurious-wakeup re-check is structurally guaranteed.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, reacquires before returning.
  /// The release/reacquire happens inside the native wait, invisibly
  /// to the analysis — which is correct: the caller holds `mu` both on
  /// entry and on exit, and must re-check its condition in a loop.
  void Wait(Mutex& mu) FUNGUS_REQUIRES(mu) { cv_.wait(mu.mu_); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // _any because it waits on the raw std::mutex inside Mutex rather
  // than a std::unique_lock; one virtual dispatch per block/wake is
  // noise next to the context switch it accompanies.
  std::condition_variable_any cv_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_MUTEX_H_
