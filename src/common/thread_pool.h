#ifndef FUNGUSDB_COMMON_THREAD_POOL_H_
#define FUNGUSDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fungusdb {

/// A small fixed-size worker pool for morsel-driven scans. One pool serves
/// a whole Database: the writer's engine and every read worker call
/// ParallelFor on it.
/// Concurrent Sessions are coordinators of the same pool at once; the
/// writer's statements and decay ticks exclude reads under the epoch.
///
/// ParallelFor is caller-runs. The calling thread (the coordinator)
/// drives the job's shared cursor itself, and idle pool workers join in
/// by claiming indices from the same cursor. The coordinator waits only
/// for indices some helper has already claimed, never for a helper that
/// has not started: when every worker is busy elsewhere, the coordinator
/// simply runs all n indices alone. A size-1 pool spawns no threads and
/// runs everything inline, which is also the determinism baseline the
/// parallel tests compare against.
///
/// Work distribution is morsel-style (a shared atomic cursor), so uneven
/// morsels load-balance automatically, while all outputs are indexed by
/// morsel so merge order never depends on which thread ran what.
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread; the pool spawns
  /// num_threads - 1 workers. 0 is clamped to 1 (fully inline).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total execution width including the caller.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n) on the calling thread and any idle
  /// workers; returns after all n calls finished. Safe to call from
  /// several threads at once. fn must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Total ParallelFor indices dispatched.
  uint64_t tasks_dispatched() const {
    return tasks_dispatched_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ FUNGUS_GUARDED_BY(mu_);
  bool stopping_ FUNGUS_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> tasks_dispatched_{0};
};

/// CPUs the calling thread may run on: the count of its scheduler
/// affinity mask (a process pinned with taskset or a cpuset sees its
/// pinned CPUs, not the host's); hardware_concurrency() where the mask
/// cannot be read. At least 1. Sizes the Database pool and fungusd's
/// automatic read-worker count.
size_t AvailableCpus();

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_THREAD_POOL_H_
