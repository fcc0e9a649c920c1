#include "relational/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/session.h"
#include "util/rng.h"

namespace avm::relational {
namespace {

TEST(HashSetTest, InsertContains) {
  HashSetI64 set;
  for (int64_t k : {5, -7, 0, 123456789}) set.Insert(k);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.Contains(5));
  EXPECT_TRUE(set.Contains(-7));
  EXPECT_FALSE(set.Contains(6));
  set.Insert(5);  // duplicate
  EXPECT_EQ(set.size(), 4u);
}

TEST(HashSetTest, GrowsUnderLoad) {
  HashSetI64 set(4);
  Rng rng(1);
  std::set<int64_t> oracle;
  for (int i = 0; i < 10000; ++i) {
    int64_t k = rng.NextInRange(-100000, 100000);
    set.Insert(k);
    oracle.insert(k);
  }
  EXPECT_EQ(set.size(), oracle.size());
  for (int64_t k : oracle) ASSERT_TRUE(set.Contains(k));
  EXPECT_FALSE(set.Contains(999999));
}

TEST(HashSetTest, ProbeSelProducesSelectionVector) {
  HashSetI64 set;
  set.Insert(10);
  set.Insert(30);
  int64_t keys[5] = {10, 20, 30, 40, 10};
  sel_t out[5];
  uint32_t n = set.ProbeSel(keys, nullptr, 5, out);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 4u);
  // Composed with an input selection.
  sel_t in_sel[3] = {1, 2, 3};
  n = set.ProbeSel(keys, in_sel, 3, out);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0], 2u);
}

TEST(HashJoinTest, ProbeReturnsPayloadRows) {
  HashJoinI64 join;
  join.Insert(100, 7);
  join.Insert(200, 8);
  int64_t keys[4] = {200, 300, 100, 100};
  sel_t pos[4];
  uint32_t rows[4];
  uint32_t n = join.Probe(keys, nullptr, 4, pos, rows);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(pos[0], 0u);
  EXPECT_EQ(rows[0], 8u);
  EXPECT_EQ(pos[1], 2u);
  EXPECT_EQ(rows[1], 7u);
}

TEST(HashJoinTest, DuplicateKeysFanOutInInsertionOrder) {
  HashJoinI64 join;
  join.Insert(100, 1);
  join.Insert(200, 2);
  join.Insert(100, 3);
  join.Insert(100, 5);
  EXPECT_EQ(join.size(), 4u);  // build rows, not distinct keys
  int64_t keys[3] = {100, 300, 100};
  sel_t pos[8];
  uint32_t rows[8];
  uint32_t n = join.Probe(keys, nullptr, 3, pos, rows);
  ASSERT_EQ(n, 6u);  // 3 build rows per matching probe position
  const sel_t want_pos[6] = {0, 0, 0, 2, 2, 2};
  const uint32_t want_rows[6] = {1, 3, 5, 1, 3, 5};
  for (uint32_t j = 0; j < n; ++j) {
    EXPECT_EQ(pos[j], want_pos[j]) << j;
    EXPECT_EQ(rows[j], want_rows[j]) << j;
  }
}

TEST(HashJoinTest, GrowKeepsEntries) {
  HashJoinI64 join(2);
  for (uint32_t i = 0; i < 5000; ++i) {
    join.Insert(static_cast<int64_t>(i) * 3, i);
  }
  EXPECT_EQ(join.size(), 5000u);
  int64_t key = 4500 * 3;
  sel_t pos[1];
  uint32_t row[1];
  ASSERT_EQ(join.Probe(&key, nullptr, 1, pos, row), 1u);
  EXPECT_EQ(row[0], 4500u);
}

TEST(SemijoinChainTest, FixedOrderCorrectness) {
  HashSetI64 f0, f1;
  for (int64_t k = 0; k < 100; k += 2) f0.Insert(k);  // evens
  for (int64_t k = 0; k < 100; k += 3) f1.Insert(k);  // multiples of 3
  AdaptiveSemijoinChain chain({&f0, &f1},
                              AdaptiveSemijoinChain::OrderPolicy::kFixed);
  std::vector<int64_t> keys(100);
  for (int i = 0; i < 100; ++i) keys[i] = i;
  std::vector<sel_t> out(100), scratch(100);
  // Both filters probe the same column here.
  uint32_t n = chain.FilterChunk({keys.data(), keys.data()}, 100, out.data(),
                                 scratch.data());
  // Survivors: multiples of 6.
  ASSERT_EQ(n, 17u);
  for (uint32_t j = 0; j < n; ++j) EXPECT_EQ(out[j] % 6, 0u);
}

TEST(SemijoinChainTest, AdaptiveReordersBySelectivity) {
  // Filter 0 keeps nearly everything; filter 1 keeps almost nothing.
  HashSetI64 keep_most, keep_few;
  for (int64_t k = 0; k < 1000; ++k) {
    if (k % 100 != 0) keep_most.Insert(k);  // 99%
    if (k < 10) keep_few.Insert(k);         // 1%
  }
  AdaptiveSemijoinChain chain({&keep_most, &keep_few},
                              AdaptiveSemijoinChain::OrderPolicy::kAdaptive);
  Rng rng(3);
  std::vector<int64_t> keys(1024);
  std::vector<sel_t> out(1024), scratch(1024);
  for (int chunk = 0; chunk < 64; ++chunk) {
    for (auto& k : keys) k = rng.NextInRange(0, 999);
    chain.FilterChunk({keys.data(), keys.data()}, 1024, out.data(),
                      scratch.data());
  }
  // The selective filter must have moved first.
  EXPECT_EQ(chain.CurrentOrder()[0], 1u);
  EXPECT_GT(chain.resorts(), 0u);
}

TEST(SemijoinChainTest, AdaptiveMatchesFixedResults) {
  HashSetI64 f0, f1;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) f0.Insert(rng.NextInRange(0, 2000));
  for (int i = 0; i < 100; ++i) f1.Insert(rng.NextInRange(0, 2000));
  std::vector<int64_t> keys(4096);
  for (auto& k : keys) k = rng.NextInRange(0, 2000);

  AdaptiveSemijoinChain fixed({&f0, &f1},
                              AdaptiveSemijoinChain::OrderPolicy::kFixed);
  AdaptiveSemijoinChain adaptive(
      {&f0, &f1}, AdaptiveSemijoinChain::OrderPolicy::kAdaptive);
  std::vector<sel_t> out1(4096), out2(4096), scratch(4096);
  for (int rep = 0; rep < 20; ++rep) {
    uint32_t n1 = fixed.FilterChunk({keys.data(), keys.data()}, 4096,
                                    out1.data(), scratch.data());
    uint32_t n2 = adaptive.FilterChunk({keys.data(), keys.data()}, 4096,
                                       out2.data(), scratch.data());
    ASSERT_EQ(n1, n2);
    std::set<sel_t> s1(out1.begin(), out1.begin() + n1);
    std::set<sel_t> s2(out2.begin(), out2.begin() + n2);
    ASSERT_EQ(s1, s2);
  }
}

TEST(SemijoinScanTest, AdaptiveChainScanMatchesScalarCount) {
  // Probe table with two i64 key columns, each guarded by its own filter:
  // a chunked scan through the adaptive (reordering) chain must count
  // exactly the rows whose k0 is in f0 and whose k1 is in f1.
  const uint64_t n = 200'000;
  Schema schema({{"k0", TypeId::kI64}, {"k1", TypeId::kI64}});
  Table probe(schema);
  Rng rng(9);
  std::vector<int64_t> k0(n), k1(n);
  for (uint64_t i = 0; i < n; ++i) {
    k0[i] = rng.NextInRange(0, 5000);
    k1[i] = rng.NextInRange(0, 5000);
  }
  ASSERT_TRUE(
      probe.column(0).AppendValues(k0.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      probe.column(1).AppendValues(k1.data(), static_cast<uint32_t>(n)).ok());

  HashSetI64 f0, f1;
  for (int i = 0; i < 2500; ++i) f0.Insert(rng.NextInRange(0, 5000));
  for (int i = 0; i < 400; ++i) f1.Insert(rng.NextInRange(0, 5000));

  AdaptiveSemijoinChain chain({&f0, &f1},
                              AdaptiveSemijoinChain::OrderPolicy::kAdaptive);
  constexpr uint32_t kChunk = 4096;
  std::vector<int64_t> b0(kChunk), b1(kChunk);
  std::vector<sel_t> out(kChunk), scratch(kChunk);
  uint64_t survivors = 0;
  for (uint64_t pos = 0; pos < n; pos += kChunk) {
    const auto m = static_cast<uint32_t>(std::min<uint64_t>(kChunk, n - pos));
    ASSERT_TRUE(probe.column(0).Read(pos, m, b0.data()).ok());
    ASSERT_TRUE(probe.column(1).Read(pos, m, b1.data()).ok());
    survivors += chain.FilterChunk({b0.data(), b1.data()}, m, out.data(),
                                   scratch.data());
  }

  // Cross-check against a scalar count.
  uint64_t expect = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (f0.Contains(k0[i]) && f1.Contains(k1[i])) ++expect;
  }
  EXPECT_GT(expect, 0u);
  EXPECT_EQ(survivors, expect);
}

TEST(JoinQueryTest, MakeJoinQueryMatchesHashJoinOracle) {
  // The engine-side join must agree with the chained HashJoinI64 probe:
  // one pair per (probe row, matching build row), duplicates fan out.
  const uint64_t n = 80'000;
  Schema ps({{"f_key", TypeId::kI64}, {"f_val", TypeId::kI64}});
  Table probe(ps);
  Rng rng(31);
  std::vector<int64_t> fk(n), fv(n);
  for (uint64_t i = 0; i < n; ++i) {
    fk[i] = rng.NextInRange(0, 2'000);
    fv[i] = rng.NextInRange(1, 99);
  }
  ASSERT_TRUE(
      probe.column(0).AppendValues(fk.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      probe.column(1).AppendValues(fv.data(), static_cast<uint32_t>(n)).ok());

  Schema ds({{"d_key", TypeId::kI64}, {"d_w", TypeId::kI64}});
  Table dim(ds);
  const uint32_t dn = 1'500;  // sparse coverage + duplicate tail
  std::vector<int64_t> dk(dn), dw(dn);
  for (uint32_t i = 0; i < dn; ++i) {
    dk[i] = i < 1'200 ? rng.NextInRange(0, 2'000) : dk[i - 1'200];
    dw[i] = rng.NextInRange(1, 50);
  }
  ASSERT_TRUE(dim.column(0).AppendValues(dk.data(), dn).ok());
  ASSERT_TRUE(dim.column(1).AppendValues(dw.data(), dn).ok());

  HashJoinI64 ht;
  for (uint32_t i = 0; i < dn; ++i) {
    ht.Insert(dk[i], i);  // duplicates chain — every build row matches
  }
  int64_t expect_rev = 0;
  uint64_t expect_matches = 0;
  std::vector<sel_t> pos(dn);
  std::vector<uint32_t> row(dn);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t hits = ht.Probe(&fk[i], nullptr, 1, pos.data(), row.data());
    expect_matches += hits;
    for (uint32_t h = 0; h < hits; ++h) expect_rev += fv[i] * dw[row[h]];
  }

  engine::QueryOptions qo;
  qo.strategy = engine::ExecutionStrategy::kInterpret;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    engine::Query q =
        MakeJoinQuery(probe, "f_key", "f_val", dim, "d_key", "d_w")
            .ValueOrDie();
    auto run = engine::Session({.num_workers = workers}).Run(q.context(), qo);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(static_cast<uint64_t>(q.aggregate("matches")[0]),
              expect_matches)
        << "workers=" << workers;
    EXPECT_EQ(q.aggregate("revenue")[0], expect_rev) << "workers=" << workers;
    if (workers > 1) {
      EXPECT_GT(run.value().morsels, 1u);
      EXPECT_TRUE(run.value().ran_serial_reason.empty())
          << run.value().ran_serial_reason;
    }
  }

  // Grouped variant agrees with a scalar group-by oracle.
  engine::Query grouped =
      MakeJoinQuery(probe, "f_key", "f_val", dim, "d_key", "d_w", 4)
          .ValueOrDie();
  ASSERT_TRUE(
      engine::Session({.num_workers = 4}).Run(grouped.context(), qo).ok());
  std::vector<int64_t> expect_g(4, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t hits = ht.Probe(&fk[i], nullptr, 1, pos.data(), row.data());
    for (uint32_t h = 0; h < hits; ++h) {
      expect_g[static_cast<size_t>(fv[i] % 4)] += fv[i] * dw[row[h]];
    }
  }
  for (size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(grouped.aggregate("revenue")[g], expect_g[g]) << "group " << g;
  }
}

TEST(SemijoinChainTest, EarlyExitOnEmptySelection) {
  HashSetI64 none, all;
  for (int64_t k = 0; k < 10; ++k) all.Insert(k);
  AdaptiveSemijoinChain chain({&none, &all},
                              AdaptiveSemijoinChain::OrderPolicy::kFixed);
  std::vector<int64_t> keys{1, 2, 3};
  std::vector<sel_t> out(3), scratch(3);
  EXPECT_EQ(chain.FilterChunk({keys.data(), keys.data()}, 3, out.data(),
                              scratch.data()),
            0u);
}

}  // namespace
}  // namespace avm::relational
