#include "engine/query_builder.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/session.h"
#include "relational/join.h"
#include "relational/q1.h"
#include "storage/datagen.h"
#include "util/rng.h"

namespace avm::engine {
namespace {

using dsl::Cast;
using dsl::ConstI;
using dsl::Var;

/// Small two-column table with known contents for hand-checked aggregates.
struct TinyTable {
  std::unique_ptr<Table> table;
  std::vector<int64_t> a, b;

  explicit TinyTable(uint64_t n = 50'000) {
    Schema schema({{"a", TypeId::kI64}, {"b", TypeId::kI64}});
    table = std::make_unique<Table>(schema);
    Rng rng(17);
    a.resize(n);
    b.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
    }
    EXPECT_TRUE(table->column(0)
                    .AppendValues(a.data(), static_cast<uint32_t>(n))
                    .ok());
    EXPECT_TRUE(table->column(1)
                    .AppendValues(b.data(), static_cast<uint32_t>(n))
                    .ok());
  }
};

QueryOptions Interp() {
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  return opts;
}

TEST(QueryBuilderTest, FilterSumCountSingleGroup) {
  TinyTable t;
  QueryBuilder qb(*t.table);
  qb.Filter(Var("a") < ConstI(500))
      .Sum("sum_b", Var("b"))
      .Count("rows");
  Query q = qb.Build().ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());

  int64_t expect_sum = 0, expect_count = 0;
  for (size_t i = 0; i < t.a.size(); ++i) {
    if (t.a[i] < 500) {
      expect_sum += t.b[i];
      ++expect_count;
    }
  }
  EXPECT_EQ(q.aggregate("sum_b")[0], expect_sum);
  EXPECT_EQ(q.aggregate("rows")[0], expect_count);
  EXPECT_EQ(q.num_groups(), 1u);
}

TEST(QueryBuilderTest, MultiColumnPredicateAndChainedFilters) {
  TinyTable t;
  QueryBuilder qb(*t.table);
  // Two-input predicate exercises the materialize-then-select path; the
  // second filter conjoins over a projection defined between them.
  qb.Filter(Var("a") < Var("b"))
      .Project("d", Var("b") - Var("a"))
      .Filter(Var("d") > ConstI(100))
      .Sum("sum_d", Var("d"))
      .Count("rows");
  Query q = qb.Build().ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());

  int64_t expect_sum = 0, expect_count = 0;
  for (size_t i = 0; i < t.a.size(); ++i) {
    if (t.a[i] < t.b[i] && t.b[i] - t.a[i] > 100) {
      expect_sum += t.b[i] - t.a[i];
      ++expect_count;
    }
  }
  EXPECT_EQ(q.aggregate("sum_d")[0], expect_sum);
  EXPECT_EQ(q.aggregate("rows")[0], expect_count);
}

TEST(QueryBuilderTest, GroupedAggregatesParallelMatchSerial) {
  TinyTable t;
  auto build = [&]() {
    QueryBuilder qb(*t.table);
    qb.Filter(Var("a") >= ConstI(100))
        .Aggregate(Var("b") / ConstI(250), 4)  // groups 0..3
        .Sum("sum_a", Var("a"))
        .Count("n");
    return qb.Build().ValueOrDie();
  };
  Query serial = build();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(serial.context(), Interp()).ok());
  Query parallel = build();
  auto rep = Session({.num_workers = 4}).Run(parallel.context(), Interp());
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep.value().morsels, 1u);

  std::vector<int64_t> expect_sum(4, 0), expect_n(4, 0);
  for (size_t i = 0; i < t.a.size(); ++i) {
    if (t.a[i] >= 100) {
      expect_sum[t.b[i] / 250] += t.a[i];
      expect_n[t.b[i] / 250] += 1;
    }
  }
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(serial.aggregate("sum_a")[g], expect_sum[g]) << "group " << g;
    EXPECT_EQ(parallel.aggregate("sum_a")[g], expect_sum[g]) << "group " << g;
    EXPECT_EQ(parallel.aggregate("n")[g], expect_n[g]) << "group " << g;
  }
}

TEST(QueryBuilderTest, Q1ViaBuilderMatchesScalarOracle) {
  LineitemSpec spec;
  spec.num_rows = 80'000;
  auto lineitem = MakeLineitem(spec);
  auto oracle = relational::RunQ1Scalar(*lineitem).ValueOrDie();

  Query q = relational::MakeQ1Query(*lineitem).ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 4}).Run(q.context(), Interp()).ok());
  EXPECT_EQ(relational::Q1ResultFromQuery(q), oracle);
}

TEST(QueryBuilderTest, SemiJoinMatchesHashSetOracle) {
  const uint64_t n = 120'000;
  Schema schema({{"k0", TypeId::kI64}, {"k1", TypeId::kI64}});
  Table probe(schema);
  Rng rng(23);
  std::vector<int64_t> k0(n), k1(n);
  for (uint64_t i = 0; i < n; ++i) {
    k0[i] = rng.NextInRange(0, 3000);
    k1[i] = rng.NextInRange(0, 3000);
  }
  ASSERT_TRUE(
      probe.column(0).AppendValues(k0.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      probe.column(1).AppendValues(k1.data(), static_cast<uint32_t>(n)).ok());
  relational::HashSetI64 f0, f1;
  for (int i = 0; i < 1500; ++i) f0.Insert(rng.NextInRange(0, 3000));
  for (int i = 0; i < 200; ++i) f1.Insert(rng.NextInRange(0, 3000));

  // Oracle: the scalar HashSetI64 membership count.
  int64_t expect = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (f0.Contains(k0[i]) && f1.Contains(k1[i])) ++expect;
  }

  Query serial =
      relational::MakeSemijoinQuery(probe, {"k0", "k1"}, {&f0, &f1})
          .ValueOrDie();
  auto s = Session({.num_workers = 1}).Run(serial.context(), Interp());
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(serial.aggregate("survivors")[0], expect);

  Query parallel =
      relational::MakeSemijoinQuery(probe, {"k0", "k1"}, {&f0, &f1})
          .ValueOrDie();
  auto p = Session({.num_workers = 4}).Run(parallel.context(), Interp());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(parallel.aggregate("survivors")[0], expect);
  // Gathers read the shared membership arrays, scatters hit accumulators:
  // the query must actually run morsel-parallel, not fall back to serial.
  EXPECT_GT(p.value().morsels, 1u);
  EXPECT_TRUE(p.value().ran_serial_reason.empty())
      << p.value().ran_serial_reason;
}

TEST(QueryBuilderTest, ResetAggregatesAllowsRerun) {
  TinyTable t(10'000);
  QueryBuilder qb(*t.table);
  qb.Filter(Var("a") < ConstI(500)).Count("n");
  Query q = qb.Build().ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());
  const int64_t once = q.aggregate("n")[0];
  ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());
  EXPECT_EQ(q.aggregate("n")[0], 2 * once);  // accumulators persist...
  q.ResetAggregates();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());
  EXPECT_EQ(q.aggregate("n")[0], once);  // ...until explicitly reset
}

TEST(QueryBuilderTest, OutOfRangeSemiJoinKeyFailsCleanly) {
  // A probe key outside the membership domain must fail the run with
  // OutOfRange (the gather bounds-checks), not read out-of-bounds memory.
  TinyTable t(1'000);  // keys in [0, 999]
  QueryBuilder qb(*t.table);
  qb.SemiJoin("a", std::vector<int64_t>(10, 1)).Count("n");
  Query q = qb.Build().ValueOrDie();
  auto r = Session({.num_workers = 1}).Run(q.context(), Interp());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange()) << r.status().ToString();
}

TEST(QueryBuilderTest, FailedSerialQueryLeavesAccumulatorsUntouched) {
  // The out-of-range key sits in the last chunk, so the run fails after
  // counting every earlier chunk. A failed task merges nothing: the
  // caller's accumulator keeps its value instead of a partial count.
  const uint64_t n = 10'000;
  Table table(Schema({{"a", TypeId::kI64}}));
  std::vector<int64_t> a(n);
  for (uint64_t i = 0; i < n; ++i) a[i] = static_cast<int64_t>(i % 10);
  a[n - 1] = 999;
  ASSERT_TRUE(table.column(0)
                  .AppendValues(a.data(), static_cast<uint32_t>(n))
                  .ok());
  QueryBuilder qb(table);
  qb.SemiJoin("a", std::vector<int64_t>(10, 1)).Count("n");
  Query q = qb.Build().ValueOrDie();
  auto r = Session({.num_workers = 1}).Run(q.context(), Interp());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange()) << r.status().ToString();
  EXPECT_EQ(q.aggregate("n")[0], 0);
}

TEST(QueryBuilderTest, BuilderReusableAfterBuild) {
  TinyTable t(10'000);
  QueryBuilder qb(*t.table);
  qb.Filter(Var("a") < ConstI(500)).Count("n");
  Query first = qb.Build().ValueOrDie();
  // Extend the same builder and build again: the second query carries the
  // extra aggregate; the first is unaffected.
  qb.Sum("sum_b", Var("b"));
  Query second = qb.Build().ValueOrDie();

  ASSERT_TRUE(Session({.num_workers = 1}).Run(first.context(), Interp()).ok());
  ASSERT_TRUE(Session({.num_workers = 1}).Run(second.context(), Interp()).ok());
  int64_t expect_n = 0, expect_sum = 0;
  for (size_t i = 0; i < t.a.size(); ++i) {
    if (t.a[i] < 500) {
      ++expect_n;
      expect_sum += t.b[i];
    }
  }
  EXPECT_EQ(first.aggregate("n")[0], expect_n);
  EXPECT_EQ(second.aggregate("n")[0], expect_n);
  EXPECT_EQ(second.aggregate("sum_b")[0], expect_sum);
}

// ----------------------------------------------------------- error paths

TEST(QueryBuilderTest, UnknownColumnRejectedAtBuild) {
  TinyTable t(100);
  QueryBuilder qb(*t.table);
  qb.Filter(Var("nope") < ConstI(5)).Count("n");
  auto r = qb.Build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("nope"), std::string::npos);
}

TEST(QueryBuilderTest, NoAggregatesRejected) {
  TinyTable t(100);
  QueryBuilder qb(*t.table);
  qb.Filter(Var("a") < ConstI(5));
  EXPECT_FALSE(qb.Build().ok());
}

TEST(QueryBuilderTest, ReservedAndDuplicateNamesRejected) {
  TinyTable t(100);
  {
    QueryBuilder qb(*t.table);
    qb.Project("col_a", Var("a") + ConstI(1)).Count("n");
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(*t.table);
    qb.Sum("x", Var("a")).Sum("x", Var("b"));
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(*t.table);
    qb.Project("a", Var("b") + ConstI(1)).Count("n");  // shadows column
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(*t.table);
    // Collides with the lowering's generated filter-selection names.
    qb.Project("okay0", Var("a") * ConstI(2)).Count("n");
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    // A table column whose NAME collides with the lowering's reserved
    // names must be diagnosed clearly, not fail with a lowering-internal
    // type error.
    Schema schema({{"i", TypeId::kI64}});
    Table bad(schema);
    std::vector<int64_t> v(16, 1);
    ASSERT_TRUE(bad.column(0).AppendValues(v.data(), 16).ok());
    QueryBuilder qb(bad);
    qb.Sum("s", Var("i"));
    auto r = qb.Build();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("reserved"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(QueryBuilderTest, SkeletonInExpressionRejected) {
  TinyTable t(100);
  QueryBuilder qb(*t.table);
  qb.Sum("s", dsl::Skeleton(dsl::SkeletonKind::kLen, {Var("a")}));
  EXPECT_FALSE(qb.Build().ok());
}

TEST(QueryBuilderTest, ConflictingSelectionCombinationRejected) {
  TinyTable t(100);
  QueryBuilder qb(*t.table);
  // p and q2 are computed under different filters' selections; the
  // interpreter cannot combine arrays carrying different selection vectors,
  // so the builder must reject this shape at Build with a clear message.
  qb.Filter(Var("a") < ConstI(500))
      .Project("p", Var("b") + ConstI(1))
      .Filter(Var("b") < ConstI(900))
      .Project("q2", Var("b") + ConstI(2))
      .Sum("s", Var("p") + Var("q2"));
  auto r = qb.Build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("filter"), std::string::npos);
}

TEST(QueryBuilderTest, WiderSelectionOnAggregateValuesIsFine) {
  // An aggregate value computed under an EARLIER (wider) selection is
  // sound: the group index carries the final selection, and every selected
  // position was computed. Verify the numbers, not just acceptance.
  TinyTable t;
  QueryBuilder qb(*t.table);
  qb.Filter(Var("a") < ConstI(500))
      .Project("p", Var("b") + ConstI(1))
      .Filter(Var("b") < ConstI(900))
      .Sum("s", Var("p"))
      .Count("n");
  Query q = qb.Build().ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());
  int64_t expect_sum = 0, expect_n = 0;
  for (size_t i = 0; i < t.a.size(); ++i) {
    if (t.a[i] < 500 && t.b[i] < 900) {
      expect_sum += t.b[i] + 1;
      ++expect_n;
    }
  }
  EXPECT_EQ(q.aggregate("s")[0], expect_sum);
  EXPECT_EQ(q.aggregate("n")[0], expect_n);
}

}  // namespace
}  // namespace avm::engine
