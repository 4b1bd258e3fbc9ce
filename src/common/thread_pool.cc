#include "common/thread_pool.h"

#include <chrono>

namespace fungusdb {

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

void ParallelForDrive(std::atomic<size_t>& cursor, size_t n,
                      const std::function<void(size_t)>& fn) {
  for (size_t i; (i = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
    fn(i);
  }
}

}  // namespace

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  tasks_dispatched_ += n;
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> cursor{0};
  // One helper per worker, capped so no helper can start with nothing
  // left to claim.
  const size_t helpers = std::min(workers_.size(), n - 1);
  std::atomic<size_t> remaining{helpers};
  Mutex done_mu;
  CondVar done_cv;
  {
    MutexLock lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([&] {
        ParallelForDrive(cursor, n, fn);
        // Decrement and notify under done_mu: the coordinator can only
        // observe zero, return and destroy done_mu / done_cv (they live
        // on its stack) after the last helper has released the lock,
        // and the notify cannot be lost between its test and its wait.
        MutexLock done_lock(done_mu);
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          done_cv.NotifyOne();
        }
      });
    }
  }
  work_cv_.NotifyAll();
  ParallelForDrive(cursor, n, fn);
  const auto wait_start = std::chrono::steady_clock::now();
  {
    MutexLock done_lock(done_mu);
    while (remaining.load(std::memory_order_acquire) != 0) {
      done_cv.Wait(done_mu);
    }
  }
  barrier_wait_micros_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wait_start)
          .count());
}

}  // namespace fungusdb
