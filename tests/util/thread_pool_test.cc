#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace avm {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterEveryIndexRan) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  ran.fetch_add(1);
                                  if (i == 5) throw std::runtime_error("5");
                                }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto f = pool.Submit([] {});
  f.get();
}

TEST(ThreadPoolTest, GlobalSingleton) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(ThreadPoolStressTest, ManySubmittersManyTasks) {
  // Morsel execution submits from the caller while workers drain; hammer
  // the queue from several producer threads at once.
  ThreadPool pool(8);
  constexpr int kProducers = 6;
  constexpr int kTasksPerProducer = 2000;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> producers;
  std::vector<std::future<void>> futs[kProducers];
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futs[p].push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& fs : futs) {
    for (auto& f : fs) f.get();
  }
  const int64_t per_producer =
      int64_t{kTasksPerProducer} * (kTasksPerProducer - 1) / 2;
  EXPECT_EQ(sum.load(), kProducers * per_producer);
}

TEST(ThreadPoolStressTest, RepeatedParallelForBursts) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> total{0};
    pool.ParallelFor(997, [&](size_t i) { total.fetch_add(i + 1); });
    ASSERT_EQ(total.load(), uint64_t{997} * 998 / 2) << "round " << round;
  }
}

TEST(ThreadPoolStressTest, ParallelForFromEveryPoolThreadAtOnce) {
  // Every pool thread calls ParallelFor at the same moment, so no thread is
  // free to start a helper: each caller must run its own indexes. The
  // state lives on the heap and the pool is leaked if the calls deadlock
  // (a deadlocked pool cannot be joined), so a failure cannot hang or
  // crash the binary.
  constexpr size_t kThreads = 4;
  constexpr size_t kIndexes = 8;
  struct Probe {
    std::barrier<> meet{kThreads};
    std::atomic<size_t> calls{0};
  };
  auto* pool = new ThreadPool(kThreads);
  auto* probe = new Probe;
  std::vector<std::future<void>> outer;
  for (size_t t = 0; t < kThreads; ++t) {
    outer.push_back(pool->Submit([pool, probe] {
      probe->meet.arrive_and_wait();
      pool->ParallelFor(kIndexes, [probe](size_t) { probe->calls++; });
    }));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool finished = true;
  for (auto& f : outer) {
    finished = finished &&
               f.wait_until(deadline) == std::future_status::ready;
  }
  ASSERT_TRUE(finished) << probe->calls.load() << " of "
                        << kThreads * kIndexes << " calls ran";
  EXPECT_EQ(probe->calls.load(), kThreads * kIndexes);
  delete pool;
  delete probe;
}

}  // namespace
}  // namespace avm
