#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace avm {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t helpers = std::min(n, num_threads()) - 1;
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller claims indexes from the same counter as its helpers, so the
  // call finishes even when no pool thread is free: when the caller is a
  // thread of this pool, or every pool thread calls at once. The caller
  // then waits only for indexes a running helper has claimed. A helper
  // that starts after every index is claimed returns without touching
  // `fn`; it holds the shared state, so it may outlive this call. The first
  // exception any call throws is rethrown here, after every claimed index
  // finished, so no helper still runs `fn` once the caller unwinds.
  struct Shared {
    Shared(size_t count, const std::function<void(size_t)>* body)
        : n(count), fn(body) {}
    const size_t n;
    const std::function<void(size_t)>* const fn;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t finished = 0;       ///< indexes run to completion; guarded by mu
    std::exception_ptr error;  ///< first exception thrown; guarded by mu
  };
  auto shared = std::make_shared<Shared>(n, &fn);
  auto drain = [](Shared& s) {
    size_t ran = 0;
    std::exception_ptr error;
    for (size_t i = s.next.fetch_add(1); i < s.n; i = s.next.fetch_add(1)) {
      try {
        (*s.fn)(i);
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.error == nullptr) s.error = error;
    s.finished += ran;
    if (s.finished == s.n) s.cv.notify_all();
  };
  for (size_t h = 0; h < helpers; ++h) {
    Submit([shared, drain] { drain(*shared); });
  }
  drain(*shared);
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->finished == n; });
  if (shared->error != nullptr) std::rethrow_exception(shared->error);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(std::thread::hardware_concurrency());
  return pool;
}

}  // namespace avm
