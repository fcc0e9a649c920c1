// Fixed-size thread pool used by the simulated GPU backend (SM-level
// parallelism), by morsel-style parallel scans, and, with one thread, as a
// Session's compiler thread (jit::CompilerThread).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/macros.h"
#include "util/thread_annotations.h"

namespace avm {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  AVM_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueue a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> fn);

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// The caller runs indexes too, so the call completes even when no pool
  /// thread is free — it may be made from a thread of this pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

  /// Process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  /// Condition-variable wait loops use std::unique_lock, which the clang
  /// thread-safety analysis does not model; the loop is excluded and kept
  /// small so it stays auditable by eye.
  void WorkerLoop() AVM_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::deque<std::packaged_task<void()>> queue_ AVM_GUARDED_BY(mu_);
  std::condition_variable cv_;
  bool stop_ AVM_GUARDED_BY(mu_) = false;
};

}  // namespace avm
