#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <memory>

namespace fungusdb {

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t spawn = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawn);
  for (size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// One ParallelFor call, shared by its coordinator and the helper tasks
/// it queued. A helper that wakes after the job is over still holds a
/// valid reference, finds the cursor used up and drops it.
struct Job {
  Job(size_t n, const std::function<void(size_t)>& fn) : n(n), fn(&fn) {}

  /// Claims and runs indices until the cursor is used up. `fn` is
  /// dereferenced only after a successful claim, and the coordinator
  /// does not return before every claimed index is done, so it is
  /// still alive.
  void Drive() {
    for (size_t i; (i = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
      (*fn)(i);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Notify under the lock: the coordinator tests `done` under it,
        // so the wake-up cannot fall between its test and its wait.
        MutexLock lock(mu);
        done_cv.NotifyAll();
      }
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> done{0};  // indices finished
  Mutex mu;
  CondVar done_cv;
};

}  // namespace

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  tasks_dispatched_.fetch_add(n, std::memory_order_relaxed);
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>(n, fn);
  // One helper per worker, capped so no helper is queued with nothing
  // it could claim even if it started at once.
  const size_t helpers = std::min(workers_.size(), n - 1);
  {
    MutexLock lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([job] { job->Drive(); });
    }
  }
  for (size_t h = 0; h < helpers; ++h) work_cv_.NotifyOne();
  job->Drive();
  // The cursor is used up, so every index is claimed; wait for the ones
  // helpers are still running.
  if (job->done.load(std::memory_order_acquire) == n) return;
  const auto wait_start = std::chrono::steady_clock::now();
  {
    MutexLock lock(job->mu);
    while (job->done.load(std::memory_order_acquire) != n) {
      job->done_cv.Wait(job->mu);
    }
  }
  barrier_wait_micros_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count()),
      std::memory_order_relaxed);
}

}  // namespace fungusdb
