#include "jit/trace_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace avm::jit {
namespace {

TEST(SituationTest, KeyDependsOnEveryComponent) {
  Situation base;
  base.trace_fingerprint = 123;
  base.schemes["col"] = Scheme::kFor;

  Situation other = base;
  other.trace_fingerprint = 124;
  EXPECT_NE(base.Key(), other.Key());

  other = base;
  other.schemes["col"] = Scheme::kPlain;
  EXPECT_NE(base.Key(), other.Key());

  other = base;
  other.schemes["col2"] = Scheme::kRle;
  EXPECT_NE(base.Key(), other.Key());

  // The positional and the selection-specialized variants of one trace
  // are distinct entries.
  other = base;
  other.sel_inputs = {"x"};
  EXPECT_NE(base.Key(), other.Key());

  EXPECT_EQ(base.Key(), base.Key());
}

TEST(SituationTest, ToStringHumanReadable) {
  Situation s;
  s.trace_fingerprint = 42;
  s.schemes["price"] = Scheme::kFor;
  std::string str = s.ToString();
  EXPECT_NE(str.find("price=for"), std::string::npos);
}

TEST(TraceCacheTest, InsertFindHitMissCounters) {
  TraceCache cache;
  Situation a;
  a.trace_fingerprint = 1;
  Situation b;
  b.trace_fingerprint = 2;

  EXPECT_EQ(cache.Find(a), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  CompiledTrace t;
  t.meta.name = "trace-a";
  cache.Insert(a, std::move(t));
  std::shared_ptr<const CompiledTrace> found = cache.Find(a);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->meta.name, "trace-a");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.Find(b), nullptr);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TraceCacheTest, OverwriteSameSituation) {
  TraceCache cache;
  Situation s;
  s.trace_fingerprint = 9;
  CompiledTrace t1;
  t1.meta.name = "v1";
  CompiledTrace t2;
  t2.meta.name = "v2";
  cache.Insert(s, std::move(t1));
  cache.Insert(s, std::move(t2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find(s)->meta.name, "v2");
}

TEST(TraceCacheTest, ConcurrentInsertAndFind) {
  // Morsel workers share one cache: many threads inserting distinct
  // situations while all threads look up the full key space. Entries handed
  // out must stay valid even while the map rehashes under inserts.
  TraceCache cache;
  constexpr int kThreads = 8;
  constexpr int kSituationsPerThread = 64;
  std::atomic<uint64_t> found{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSituationsPerThread; ++i) {
        Situation s;
        s.trace_fingerprint =
            static_cast<uint64_t>(t) * kSituationsPerThread + i;
        CompiledTrace trace;
        trace.meta.name = "t" + std::to_string(t) + "-" + std::to_string(i);
        cache.Insert(s, std::move(trace));
        // Probe the whole key space, holding entries across further inserts.
        for (int probe = 0; probe < kThreads * kSituationsPerThread;
             probe += 17) {
          Situation q;
          q.trace_fingerprint = static_cast<uint64_t>(probe);
          std::shared_ptr<const CompiledTrace> hit = cache.Find(q);
          if (hit != nullptr) {
            found.fetch_add(1);
            ASSERT_FALSE(hit->meta.name.empty());
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.size(),
            static_cast<size_t>(kThreads) * kSituationsPerThread);
  EXPECT_GT(found.load(), 0u);
  // Every insert was preceded by zero Finds of that key from its own
  // thread, so hits + misses must equal total probes.
  EXPECT_EQ(cache.hits(), found.load());
}

TEST(TraceCacheTest, ConcurrentSameSituationOverwrite) {
  // Two workers racing to compile the same situation: last insert wins and
  // readers never observe a torn entry.
  TraceCache cache;
  Situation s;
  s.trace_fingerprint = 77;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        CompiledTrace trace;
        trace.meta.name = "worker" + std::to_string(t);
        cache.Insert(s, std::move(trace));
        auto hit = cache.Find(s);
        ASSERT_NE(hit, nullptr);
        ASSERT_EQ(hit->meta.name.rfind("worker", 0), 0u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace avm::jit
