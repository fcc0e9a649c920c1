// jit::CodeCache, the process's one map from generated source text to
// loaded entry point: single-flight per source, concurrent across sources
// without a compiler thread, one at a time and in order on one, never
// waited on by a request that gives one, and no cached failures. Each test
// uses a private cache whose compile step wraps the host compiler, so it
// can count and stage compiles.
#include "jit/code_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/string_util.h"

namespace avm::jit {
namespace {

using Fn = long long (*)(long long);

/// A request without a compiler thread: the entry point or the failure.
Result<void*> Get(CodeCache& cache, const std::string& source,
                  const std::string& symbol, CodeOrigin* origin) {
  Result<CodeRequest> req = cache.Request(source, symbol, nullptr, nullptr);
  if (!req.ok()) return req.status();
  *origin = req.value().origin;
  EXPECT_EQ(req.value().pending, nullptr);
  return req.value().fn;
}

/// A translation unit defining `long long <symbol>(long long x)` that
/// returns x + `add`.
std::string AddSource(const std::string& symbol, int add) {
  return StrFormat("extern \"C\" long long %s(long long x) { return x + %d; }",
                   symbol.c_str(), add);
}

TEST(CodeCacheTest, ConcurrentRequestsForOneSourceCompileOnce) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  std::atomic<int> compiles{0};
  CodeCache cache([&](const std::string& source, double* seconds) {
    ++compiles;
    return CompileArtifact(source, seconds);
  });
  const std::string source = AddSource("avm_code_cache_one", 5);
  constexpr int kThreads = 8;
  std::vector<void*> fns(kThreads, nullptr);
  std::vector<CodeOrigin> origins(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fn = Get(cache, source, "avm_code_cache_one", &origins[t]);
      ASSERT_TRUE(fn.ok()) << fn.status().ToString();
      fns[t] = fn.value();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1);
  int compiled = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fns[t], fns[0]) << "thread " << t;
    if (origins[t].from == CodeOrigin::From::kCompiler) {
      ++compiled;
      EXPECT_GT(origins[t].compile_seconds, 0.0);
    } else {
      EXPECT_EQ(origins[t].from, CodeOrigin::From::kCache);
      EXPECT_EQ(origins[t].compile_seconds, 0.0);
    }
  }
  EXPECT_EQ(compiled, 1);
  ASSERT_NE(fns[0], nullptr);
  EXPECT_EQ(reinterpret_cast<Fn>(fns[0])(10), 15);

  // Asking for a symbol the loaded source does not define is an error,
  // never another source's entry point.
  CodeOrigin origin;
  EXPECT_FALSE(Get(cache, source, "avm_other", &origin).ok());
}

TEST(CodeCacheTest, DistinctSourcesCompileConcurrently) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  // Each compile waits (bounded) until both are in flight: were compiles
  // of distinct sources serialized, the first would time out waiting.
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  bool overlapped = false;
  CodeCache cache([&](const std::string& source, double* seconds) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++in_flight;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(30),
                      [&] { return in_flight == 2; })) {
        overlapped = true;
      }
    }
    return CompileArtifact(source, seconds);
  });
  std::vector<std::string> symbols = {"avm_code_cache_a", "avm_code_cache_b"};
  std::vector<void*> fns(2, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      CodeOrigin origin;
      auto fn = Get(cache, AddSource(symbols[t], t + 1), symbols[t], &origin);
      ASSERT_TRUE(fn.ok()) << fn.status().ToString();
      EXPECT_EQ(origin.from, CodeOrigin::From::kCompiler);
      fns[t] = fn.value();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(overlapped);
  ASSERT_NE(fns[0], nullptr);
  ASSERT_NE(fns[1], nullptr);
  EXPECT_EQ(reinterpret_cast<Fn>(fns[0])(10), 11);
  EXPECT_EQ(reinterpret_cast<Fn>(fns[1])(10), 12);
}

TEST(CodeCacheTest, FailedCompileIsNotCached) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  // The first compile fails, as a compiler killed midway would; the next
  // request for the same source must compile again and succeed.
  int compiles = 0;
  CodeCache cache([&](const std::string& source, double* seconds) {
    if (++compiles == 1) {
      return Result<JitArtifact>(Status::CompilationError("first try fails"));
    }
    return CompileArtifact(source, seconds);
  });
  const std::string source = AddSource("avm_code_cache_retry", 7);
  CodeOrigin origin;
  auto first = Get(cache, source, "avm_code_cache_retry", &origin);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsCompilationError());

  auto second = Get(cache, source, "avm_code_cache_retry", &origin);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(compiles, 2);
  EXPECT_EQ(origin.from, CodeOrigin::From::kCompiler);
  EXPECT_EQ(reinterpret_cast<Fn>(second.value())(1), 8);

  auto third = Get(cache, source, "avm_code_cache_retry", &origin);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value(), second.value());
  EXPECT_EQ(origin.from, CodeOrigin::From::kCache);
  EXPECT_EQ(compiles, 2);
}

/// A compile step that holds each compile until Release(), counting the
/// compiles in flight.
class GatedCompile {
 public:
  Result<JitArtifact> operator()(const std::string& source, double* seconds) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      order_.push_back(source);
      max_in_flight_ = std::max(max_in_flight_, ++in_flight_);
      cv_.wait(lock, [&] { return released_; });
    }
    Result<JitArtifact> art =
        fail_next_.exchange(false)
            ? Status::CompilationError("failed on purpose")
            : CompileArtifact(source, seconds);
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    return art;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  void FailNext() { fail_next_ = true; }
  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  int max_in_flight() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_flight_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
  std::vector<std::string> order_;
  std::atomic<bool> fail_next_{false};
};

TEST(CodeCacheTest, RequestWithACompilerThreadReturnsPendingAtOnce) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  GatedCompile gate;
  CodeCache cache([&](const std::string& source, double* seconds) {
    return gate(source, seconds);
  });
  CompilerThread compiler;
  const std::string source = AddSource("avm_code_cache_pending", 3);
  auto first = cache.Request(source, "avm_code_cache_pending", nullptr,
                             &compiler);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(first.value().pending, nullptr);
  EXPECT_EQ(first.value().fn, nullptr);
  EXPECT_EQ(first.value().origin.from, CodeOrigin::From::kCompiler);
  EXPECT_FALSE(first.value().pending->done());
  EXPECT_EQ(compiler.stats().pending, 1u);

  // A second request for the source, with a compiler thread, finds the
  // same slot pending and starts nothing.
  auto second = cache.Request(source, "avm_code_cache_pending", nullptr,
                              &compiler);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().pending, first.value().pending);
  EXPECT_EQ(second.value().origin.from, CodeOrigin::From::kCache);

  // A request without one waits for the queued compile.
  std::thread waiter([&] {
    CodeOrigin origin;
    auto fn = Get(cache, source, "avm_code_cache_pending", &origin);
    ASSERT_TRUE(fn.ok()) << fn.status().ToString();
    EXPECT_EQ(origin.from, CodeOrigin::From::kCache);
    EXPECT_EQ(reinterpret_cast<Fn>(fn.value())(1), 4);
  });
  gate.Release();
  waiter.join();
  Result<void*> fn = first.value().pending->Wait();
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  EXPECT_TRUE(first.value().pending->done());
  EXPECT_EQ(reinterpret_cast<Fn>(fn.value())(10), 13);
  // The compile's time is taken once.
  EXPECT_GT(first.value().pending->TakeCompileSeconds(), 0.0);
  EXPECT_EQ(second.value().pending->TakeCompileSeconds(), 0.0);
  EXPECT_EQ(gate.order().size(), 1u);

  // Once landed, a request is ready.
  auto third = cache.Request(source, "avm_code_cache_pending", nullptr,
                             &compiler);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().pending, nullptr);
  EXPECT_EQ(third.value().fn, fn.value());
}

TEST(CodeCacheTest, CompilerThreadCompilesOneAtATimeInOrder) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  GatedCompile gate;
  CodeCache cache([&](const std::string& source, double* seconds) {
    return gate(source, seconds);
  });
  std::vector<std::string> sources;
  std::vector<std::shared_ptr<CodeSlot>> slots;
  {
    CompilerThread compiler;
    for (int i = 0; i < 3; ++i) {
      const std::string symbol = StrFormat("avm_code_cache_fifo%d", i);
      sources.push_back(AddSource(symbol, i));
      auto req = cache.Request(sources.back(), symbol, nullptr, &compiler);
      ASSERT_TRUE(req.ok()) << req.status().ToString();
      ASSERT_NE(req.value().pending, nullptr);
      slots.push_back(req.value().pending);
    }
    EXPECT_EQ(compiler.stats().pending, 3u);
    gate.Release();
    // Destroying the thread finishes every queued compile first.
  }
  EXPECT_EQ(gate.order(), sources);
  EXPECT_EQ(gate.max_in_flight(), 1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(slots[i]->done()) << i;
    Result<void*> fn = slots[i]->Wait();
    ASSERT_TRUE(fn.ok()) << fn.status().ToString();
    EXPECT_EQ(reinterpret_cast<Fn>(fn.value())(100), 100 + i);
  }
}

TEST(CodeCacheTest, QueuedCompileFailureIsNotCached) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  GatedCompile gate;
  gate.Release();
  gate.FailNext();
  CodeCache cache([&](const std::string& source, double* seconds) {
    return gate(source, seconds);
  });
  CompilerThread compiler;
  const std::string source = AddSource("avm_code_cache_queued_retry", 9);
  auto first = cache.Request(source, "avm_code_cache_queued_retry", nullptr,
                             &compiler);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first.value().pending, nullptr);
  Result<void*> failed = first.value().pending->Wait();
  EXPECT_TRUE(failed.status().IsCompilationError());
  EXPECT_EQ(first.value().pending->TakeCompileSeconds(), 0.0);

  // The next request queues the compile again.
  auto second = cache.Request(source, "avm_code_cache_queued_retry", nullptr,
                              &compiler);
  ASSERT_TRUE(second.ok());
  ASSERT_NE(second.value().pending, nullptr);
  EXPECT_NE(second.value().pending, first.value().pending);
  EXPECT_EQ(second.value().origin.from, CodeOrigin::From::kCompiler);
  Result<void*> fn = second.value().pending->Wait();
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  EXPECT_EQ(reinterpret_cast<Fn>(fn.value())(1), 10);
  EXPECT_EQ(gate.order().size(), 2u);
  // Stats count the thread's finished runs; the last one finishes its
  // bookkeeping just after the slot.
  while (compiler.stats().pending > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(compiler.stats().compiled, 2u);
  EXPECT_GT(compiler.stats().compile_seconds, 0.0);
}

}  // namespace
}  // namespace avm::jit
