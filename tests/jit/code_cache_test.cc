// jit::CodeCache, the process's one map from generated source text to
// loaded entry point: single-flight per source, concurrent across sources,
// and no cached failures. Each test uses a private cache whose compile step
// wraps the host compiler, so it can count and stage compiles.
#include "jit/code_cache.h"

#include <gtest/gtest.h>

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
      auto fn = cache.Get(source, "avm_code_cache_one", nullptr, &origins[t]);
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
  EXPECT_FALSE(cache.Get(source, "avm_other", nullptr, &origin).ok());
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
      auto fn = cache.Get(AddSource(symbols[t], t + 1), symbols[t], nullptr,
                          &origin);
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
  auto first = cache.Get(source, "avm_code_cache_retry", nullptr, &origin);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsCompilationError());

  auto second = cache.Get(source, "avm_code_cache_retry", nullptr, &origin);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(compiles, 2);
  EXPECT_EQ(origin.from, CodeOrigin::From::kCompiler);
  EXPECT_EQ(reinterpret_cast<Fn>(second.value())(1), 8);

  auto third = cache.Get(source, "avm_code_cache_retry", nullptr, &origin);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value(), second.value());
  EXPECT_EQ(origin.from, CodeOrigin::From::kCache);
  EXPECT_EQ(compiles, 2);
}

}  // namespace
}  // namespace avm::jit
