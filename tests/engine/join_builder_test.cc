// First-class hash joins + ORDER BY / row materialization on
// engine::QueryBuilder: edge cases (empty build side, duplicate-key
// many-to-many fan-out, negative/sparse/huge key domains, absent probe
// keys, selection-composed probe input), dense-vs-hash path equivalence,
// f64 aggregates, and ordered materialized output — each checked against
// scalar oracles, serially and morsel-parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_builder.h"
#include "engine/session.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace avm::engine {
namespace {

using dsl::Cast;
using dsl::ConstI;
using dsl::Var;

QueryOptions Interp() {
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  return opts;
}

/// Probe fact table: f_key (join key, may miss the build side, may be
/// negative), f_a, f_b in [0, 999].
struct ProbeTable {
  std::unique_ptr<Table> table;
  std::vector<int64_t> key, a, b;

  explicit ProbeTable(uint64_t n = 60'000, int64_t key_lo = -5,
                      int64_t key_hi = 1'400, uint64_t seed = 7) {
    Rng rng(seed);
    key.resize(n);
    a.resize(n);
    b.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      key[i] = rng.NextInRange(key_lo, key_hi);
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
    }
    Load();
  }

  /// (Re)builds `table` from key/a/b, so a test can edit values first.
  void Load() {
    Schema schema({{"f_key", TypeId::kI64},
                   {"f_a", TypeId::kI64},
                   {"f_b", TypeId::kI64}});
    table = std::make_unique<Table>(schema);
    const uint64_t n = key.size();
    EXPECT_TRUE(table->column(0)
                    .AppendValues(key.data(), static_cast<uint32_t>(n))
                    .ok());
    EXPECT_TRUE(table->column(1)
                    .AppendValues(a.data(), static_cast<uint32_t>(n))
                    .ok());
    EXPECT_TRUE(table->column(2)
                    .AppendValues(b.data(), static_cast<uint32_t>(n))
                    .ok());
  }
};

/// Build/dimension table: d_key plus an i64 payload d_val and an f64
/// payload d_rate.
struct BuildTable {
  std::unique_ptr<Table> table;
  std::vector<int64_t> key, val;
  std::vector<double> rate;

  BuildTable(std::vector<int64_t> keys, uint64_t seed = 11)
      : key(std::move(keys)) {
    Schema schema({{"d_key", TypeId::kI64},
                   {"d_val", TypeId::kI64},
                   {"d_rate", TypeId::kF64}});
    table = std::make_unique<Table>(schema);
    Rng rng(seed);
    const size_t n = key.size();
    val.resize(n);
    rate.resize(n);
    for (size_t i = 0; i < n; ++i) {
      val[i] = rng.NextInRange(1, 500);
      rate[i] = static_cast<double>(rng.NextInRange(1, 1000)) / 8.0;
    }
    if (n > 0) {
      EXPECT_TRUE(table->column(0)
                      .AppendValues(key.data(), static_cast<uint32_t>(n))
                      .ok());
      EXPECT_TRUE(table->column(1)
                      .AppendValues(val.data(), static_cast<uint32_t>(n))
                      .ok());
      EXPECT_TRUE(table->column(2)
                      .AppendValues(rate.data(), static_cast<uint32_t>(n))
                      .ok());
    }
  }

  /// Unique-key lookup (the tests using it have unique build keys; with
  /// duplicates use MatchRows for the many-to-many pair semantics).
  bool Lookup(int64_t k, int64_t* out_val, double* out_rate) const {
    for (size_t i = key.size(); i-- > 0;) {
      if (key[i] == k) {
        *out_val = val[i];
        *out_rate = rate[i];
        return true;
      }
    }
    return false;
  }

  /// All build rows matching `k`, ascending — one output pair per entry.
  std::vector<size_t> MatchRows(int64_t k) const {
    std::vector<size_t> rows;
    for (size_t i = 0; i < key.size(); ++i) {
      if (key[i] == k) rows.push_back(i);
    }
    return rows;
  }
};

std::vector<int64_t> DenseKeys(int64_t n) {
  std::vector<int64_t> keys(static_cast<size_t>(n));
  std::iota(keys.begin(), keys.end(), 0);
  return keys;
}

TEST(JoinBuilderTest, JoinAggregatesMatchScalarOracleSerialAndParallel) {
  ProbeTable probe;
  // Sparse build side: roughly half the probe key domain is present.
  std::vector<int64_t> keys;
  for (int64_t k = 0; k <= 1'400; k += 2) keys.push_back(k);
  BuildTable build(std::move(keys));

  int64_t expect_n = 0, expect_sum = 0;
  for (size_t i = 0; i < probe.key.size(); ++i) {
    if (probe.a[i] >= 300) continue;
    int64_t v;
    double r;
    if (!build.Lookup(probe.key[i], &v, &r)) continue;
    ++expect_n;
    expect_sum += probe.b[i] * v;
  }

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_a") < ConstI(300))
        .Join(*build.table, "f_key", "d_key", {"d_val"})
        .Sum("sum_bv", Var("f_b") * Var("d_val"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    if (workers > 1) {
      EXPECT_GT(rep.value().morsels, 1u);
      EXPECT_TRUE(rep.value().ran_serial_reason.empty())
          << rep.value().ran_serial_reason;
    }
    EXPECT_EQ(q.aggregate("n")[0], expect_n) << "workers=" << workers;
    EXPECT_EQ(q.aggregate("sum_bv")[0], expect_sum) << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, EmptyBuildSideDropsEveryRow) {
  ProbeTable probe(5'000);
  BuildTable build({});
  QueryBuilder qb(*probe.table);
  qb.Join(*build.table, "f_key", "d_key").Count("n");
  Query q = qb.Build().ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 4}).Run(q.context(), Interp()).ok());
  EXPECT_EQ(q.aggregate("n")[0], 0);
}

TEST(JoinBuilderTest, EmptyProbeSideProducesEmptyResults) {
  Schema ps({{"f_key", TypeId::kI64}});
  Table empty_probe(ps);  // zero rows
  BuildTable build(DenseKeys(10));
  {
    QueryBuilder qb(empty_probe);
    qb.Join(*build.table, "f_key", "d_key", {"d_val"}).Count("n");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(Session({.num_workers = 4}).Run(q.context(), Interp()).ok());
    EXPECT_EQ(q.aggregate("n")[0], 0);
  }
  {
    QueryBuilder qb(empty_probe);
    qb.Join(*build.table, "f_key", "d_key", {"d_val"})
        .Output("d_val")
        .OrderBy("f_key");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(Session({.num_workers = 4}).Run(q.context(), Interp()).ok());
    EXPECT_EQ(q.num_result_rows(), 0u);
    EXPECT_TRUE(q.result_column("d_val").data.empty());
  }
}

TEST(JoinBuilderTest, AllDuplicateBuildKeysFanOutPerBuildRow) {
  ProbeTable probe(5'000, /*key_lo=*/0, /*key_hi=*/10);
  BuildTable build(std::vector<int64_t>(64, 7));  // 64 rows, all key 7
  int64_t hits = 0;
  for (int64_t k : probe.key) hits += k == 7 ? 1 : 0;
  const int64_t val_sum =
      std::accumulate(build.val.begin(), build.val.end(), int64_t{0});
  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Join(*build.table, "f_key", "d_key", {"d_val"})
        .Sum("sum_v", Var("d_val"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(
        Session({.num_workers = workers}).Run(q.context(), Interp()).ok());
    // One output pair per (probe row, matching build row): every probe hit
    // fans out across all 64 duplicate build rows.
    EXPECT_EQ(q.aggregate("n")[0], hits * 64) << "workers=" << workers;
    EXPECT_EQ(q.aggregate("sum_v")[0], hits * val_sum)
        << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, DuplicateFanOutMatchesScalarOracle) {
  // Mixed duplicate counts (1..6 per key) against a scalar many-to-many
  // oracle, with a pre-join filter so the probe runs under a selection.
  ProbeTable probe(30'000, /*key_lo=*/-3, /*key_hi=*/120);
  Rng rng(23);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k <= 100; ++k) {
    const int64_t copies = rng.NextInRange(1, 6);
    for (int64_t c = 0; c < copies; ++c) keys.push_back(k);
  }
  BuildTable build(std::move(keys));

  int64_t expect_n = 0, expect_sum = 0;
  for (size_t i = 0; i < probe.key.size(); ++i) {
    if (probe.a[i] >= 600) continue;
    for (size_t r : build.MatchRows(probe.key[i])) {
      ++expect_n;
      expect_sum += probe.b[i] * build.val[r];
    }
  }
  ASSERT_GT(expect_n, 0);

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_a") < ConstI(600))
        .Join(*build.table, "f_key", "d_key", {"d_val"})
        .Sum("s", Var("f_b") * Var("d_val"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    if (workers > 1) {
      EXPECT_GT(rep.value().morsels, 1u);
      EXPECT_TRUE(rep.value().ran_serial_reason.empty())
          << rep.value().ran_serial_reason;
    }
    EXPECT_EQ(q.aggregate("n")[0], expect_n) << "workers=" << workers;
    EXPECT_EQ(q.aggregate("s")[0], expect_sum) << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, NegativeSparseAndHugeBuildKeysJoinViaHashTable) {
  // Keys that the dense path cannot represent — negative, sparse, and far
  // beyond the ~16M dense-domain cap — must Build() and probe correctly.
  const uint64_t n = 8'000;
  Schema ps({{"f_key", TypeId::kI64}, {"f_b", TypeId::kI64}});
  Table probe(ps);
  Rng rng(41);
  std::vector<int64_t> fk(n), fb(n);
  const std::vector<int64_t> domain = {
      -9'000'000'000'000LL, -17, -1, 0, 3, (int64_t{1} << 24) + 5,
      (int64_t{1} << 40),   907, 908};
  for (uint64_t i = 0; i < n; ++i) {
    // Half the probes hit the domain, half miss.
    fk[i] = rng.NextInRange(0, 1) != 0
                ? domain[static_cast<size_t>(
                      rng.NextInRange(0, static_cast<int64_t>(domain.size()) - 1))]
                : rng.NextInRange(100'000, 200'000);
    fb[i] = rng.NextInRange(1, 99);
  }
  ASSERT_TRUE(
      probe.column(0).AppendValues(fk.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      probe.column(1).AppendValues(fb.data(), static_cast<uint32_t>(n)).ok());

  // Build side: each domain key once, plus a duplicate of the negatives.
  std::vector<int64_t> bk = domain;
  bk.push_back(-17);
  bk.push_back(-1);
  BuildTable build(bk);

  int64_t expect_n = 0, expect_sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    for (size_t r : build.MatchRows(fk[i])) {
      ++expect_n;
      expect_sum += fb[i] * build.val[r];
    }
  }
  ASSERT_GT(expect_n, 0);

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(probe);
    qb.Join(*build.table, "f_key", "d_key", {"d_val"})
        .Sum("s", Var("f_b") * Var("d_val"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(q.aggregate("n")[0], expect_n) << "workers=" << workers;
    EXPECT_EQ(q.aggregate("s")[0], expect_sum) << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, DenseAndHashPathsBitIdentical) {
  // Unique in-domain keys qualify for the dense fast path; forcing the CSR
  // hash table on the same data must give bit-identical aggregates AND
  // bit-identical ordered materialized rows.
  ProbeTable probe(20'000);
  BuildTable build(DenseKeys(1'000));

  auto run = [&](JoinStrategy strategy, size_t workers) {
    QueryBuilder qb(*probe.table);
    qb.SetJoinStrategy(strategy)
        .Filter(Var("f_a") < ConstI(700))
        .Join(*build.table, "f_key", "d_key", {"d_val"})
        .Output("f_b")
        .Output("d_val")
        .OrderBy("f_key");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    return q;
  };

  Query dense = run(JoinStrategy::kAuto, 1);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    Query hash = run(JoinStrategy::kHash, workers);
    ASSERT_EQ(hash.num_result_rows(), dense.num_result_rows())
        << "workers=" << workers;
    for (const char* col : {"f_key", "f_b", "d_val"}) {
      EXPECT_EQ(hash.result_column(col).data, dense.result_column(col).data)
          << col << " workers=" << workers;
    }
  }
}

TEST(JoinBuilderTest, DuplicateFanOutOrderedRowsBitIdenticalSerialVsParallel) {
  // Row materialization through a fanning-out join: pairs appear in
  // probe-row order with build-row-ascending ties, for any worker count.
  ProbeTable probe(12'000, /*key_lo=*/-2, /*key_hi=*/60);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k <= 50; ++k) {
    for (int64_t c = 0; c <= k % 4; ++c) keys.push_back(k);
  }
  BuildTable build(std::move(keys));

  auto run = [&](size_t workers) {
    QueryBuilder qb(*probe.table);
    qb.Join(*build.table, "f_key", "d_key", {"d_val"})
        .Output("f_b")
        .Output("d_val")
        .OrderBy("f_key");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    return q;
  };

  // Scalar oracle: stable sort by key of the probe-row-major pair list.
  struct Pair {
    int64_t key, b, val;
  };
  std::vector<Pair> oracle;
  for (size_t i = 0; i < probe.key.size(); ++i) {
    for (size_t r : build.MatchRows(probe.key[i])) {
      oracle.push_back({probe.key[i], probe.b[i], build.val[r]});
    }
  }
  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const Pair& x, const Pair& y) { return x.key < y.key; });
  ASSERT_GT(oracle.size(), probe.key.size() / 4);

  Query serial = run(1);
  ASSERT_EQ(serial.num_result_rows(), oracle.size());
  const int64_t* keys_out = serial.result_column("f_key").As<int64_t>();
  const int64_t* b_out = serial.result_column("f_b").As<int64_t>();
  const int64_t* val_out = serial.result_column("d_val").As<int64_t>();
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(keys_out[i], oracle[i].key) << i;
    ASSERT_EQ(b_out[i], oracle[i].b) << i;
    ASSERT_EQ(val_out[i], oracle[i].val) << i;
  }

  Query parallel = run(4);
  ASSERT_EQ(parallel.num_result_rows(), serial.num_result_rows());
  for (const char* col : {"f_key", "f_b", "d_val"}) {
    EXPECT_EQ(parallel.result_column(col).data, serial.result_column(col).data)
        << col;
  }
}

TEST(JoinBuilderTest, AbsentNegativeAndOutOfDomainProbeKeysAreDropped) {
  // Probe keys range over [-5, 1400]; the build side covers [100, 199], so
  // probes below, above, and inside-but-absent must all just drop (the
  // clamp maps them to the guard slot) — never OutOfRange.
  ProbeTable probe(20'000);
  std::vector<int64_t> keys;
  for (int64_t k = 100; k < 200; ++k) keys.push_back(k);
  BuildTable build(std::move(keys));
  QueryBuilder qb(*probe.table);
  qb.Join(*build.table, "f_key", "d_key", {"d_val"}).Count("n");
  Query q = qb.Build().ValueOrDie();
  auto rep = Session({.num_workers = 4}).Run(q.context(), Interp());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  int64_t expect = 0;
  for (int64_t k : probe.key) expect += (k >= 100 && k < 200) ? 1 : 0;
  EXPECT_EQ(q.aggregate("n")[0], expect);
}

TEST(JoinBuilderTest, SelectionComposedProbeAndPostJoinFilter) {
  // Filter -> Join -> Filter over a payload -> aggregate mixing payload and
  // probe columns: the probe runs under a selection, the payload gathers
  // compose with the post-join filter's refined selection.
  ProbeTable probe;
  BuildTable build(DenseKeys(1'000));

  int64_t expect_n = 0, expect_sum = 0;
  for (size_t i = 0; i < probe.key.size(); ++i) {
    if (probe.a[i] >= 500) continue;
    int64_t v;
    double r;
    if (!build.Lookup(probe.key[i], &v, &r)) continue;
    if (v <= 100) continue;
    ++expect_n;
    expect_sum += probe.b[i] + v;
  }

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_a") < ConstI(500))
        .Join(*build.table, "f_key", "d_key", {"d_val"})
        .Filter(Var("d_val") > ConstI(100))
        .Sum("s", Var("f_b") + Var("d_val"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(q.aggregate("n")[0], expect_n) << "workers=" << workers;
    EXPECT_EQ(q.aggregate("s")[0], expect_sum) << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, JoinKeyProjectedAfterFilterWorks) {
  // The probe key is a projection computed AFTER a filter (it carries that
  // filter's selection); the join re-derives it positionally for the
  // lookup-index vector. Every scalar op is total, so this is safe.
  ProbeTable probe;
  BuildTable build(DenseKeys(800));
  int64_t expect_n = 0;
  for (size_t i = 0; i < probe.key.size(); ++i) {
    if (probe.a[i] >= 700) continue;
    const int64_t k2 = probe.key[i] / 2;
    if (k2 >= 0 && k2 < 800) ++expect_n;
  }
  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_a") < ConstI(700))
        .Project("half", Var("f_key") / ConstI(2))
        .Join(*build.table, "half", "d_key")
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(
        Session({.num_workers = workers}).Run(q.context(), Interp()).ok());
    EXPECT_EQ(q.aggregate("n")[0], expect_n) << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, TwoJoinsSecondKeyedOnFirstJoinsPayload) {
  // Snowflake shape: probe -> build1, then build1's payload is the probe
  // key into build2 (exercises per-join jm_/jp_ bindings and payload
  // re-derivation as a positional join key across two selection changes).
  ProbeTable probe(40'000);
  BuildTable b1(DenseKeys(1'000));  // d_val in [1, 500] keys build2
  Schema s2({{"e_key", TypeId::kI64}, {"e_val", TypeId::kI64}});
  Table b2(s2);
  Rng rng(13);
  std::vector<int64_t> ek, ev;
  for (int64_t k = 0; k <= 400; ++k) {  // covers only part of d_val's range
    ek.push_back(k);
    ev.push_back(rng.NextInRange(1, 99));
  }
  ASSERT_TRUE(b2.column(0)
                  .AppendValues(ek.data(), static_cast<uint32_t>(ek.size()))
                  .ok());
  ASSERT_TRUE(b2.column(1)
                  .AppendValues(ev.data(), static_cast<uint32_t>(ev.size()))
                  .ok());

  int64_t expect_n = 0, expect_sum = 0;
  for (size_t i = 0; i < probe.key.size(); ++i) {
    int64_t v;
    double r;
    if (!b1.Lookup(probe.key[i], &v, &r)) continue;
    if (v < 0 || v > 400) continue;
    ++expect_n;
    expect_sum += probe.a[i] + ev[static_cast<size_t>(v)];
  }

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Join(*b1.table, "f_key", "d_key", {"d_val"})
        .Join(b2, "d_val", "e_key", {"e_val"})
        .Sum("s", Var("f_a") + Var("e_val"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    auto rep = Session({.num_workers = workers}).Run(q.context(), Interp());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(q.aggregate("n")[0], expect_n) << "workers=" << workers;
    EXPECT_EQ(q.aggregate("s")[0], expect_sum) << "workers=" << workers;
  }
}

TEST(JoinBuilderTest, ValuesAcrossDifferentFiltersStillRejected) {
  // Combining values computed under DIFFERENT filters' selections stays a
  // Build-time error with the join in the pipeline.
  ProbeTable probe(1'000);
  BuildTable build(DenseKeys(100));
  QueryBuilder qb(*probe.table);
  qb.Filter(Var("f_a") < ConstI(500))
      .Project("p", Var("f_b") + ConstI(1))
      .Join(*build.table, "f_key", "d_key", {"d_val"})
      .Sum("s", Var("p") + Var("d_val"));
  auto r = qb.Build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("filter"), std::string::npos)
      << r.status().ToString();
}

TEST(JoinBuilderTest, BuildSideErrorsSurfaceAtBuild) {
  ProbeTable probe(1'000);
  {
    // Negative build keys are legal now (hash-table path): Build succeeds
    // and the join matches them.
    BuildTable build({3, -2, 5});
    QueryBuilder qb(*probe.table);
    qb.Join(*build.table, "f_key", "d_key").Count("n");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());
    int64_t expect = 0;
    for (int64_t k : probe.key) {
      expect += (k == 3 || k == -2 || k == 5) ? 1 : 0;
    }
    EXPECT_EQ(q.aggregate("n")[0], expect);
  }
  {
    // Unknown payload column.
    BuildTable build(DenseKeys(10));
    QueryBuilder qb(*probe.table);
    qb.Join(*build.table, "f_key", "d_key", {"nope"}).Count("n");
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    // Payload name colliding with a probe column.
    Schema schema({{"f_a", TypeId::kI64}});
    Table clash(schema);
    std::vector<int64_t> v(8, 1);
    ASSERT_TRUE(clash.column(0).AppendValues(v.data(), 8).ok());
    // Build side whose payload column is named like the probe's own column.
    Schema bschema({{"d_key", TypeId::kI64}, {"f_a", TypeId::kI64}});
    Table bside(bschema);
    ASSERT_TRUE(bside.column(0).AppendValues(v.data(), 8).ok());
    ASSERT_TRUE(bside.column(1).AppendValues(v.data(), 8).ok());
    QueryBuilder qb(clash);
    qb.Join(bside, "f_a", "d_key").Count("n");
    auto r = qb.Build();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("collides"), std::string::npos);
  }
}

// ------------------------------------------------------ ORDER BY / output

/// Runs a row query and returns (key, payload) result pairs.
struct MaterializedRows {
  std::vector<int64_t> keys;
  std::vector<int64_t> vals;
};

TEST(JoinBuilderTest, OrderedRowsBitIdenticalSerialVsParallel) {
  // Two inputs. The default table: its 4-worker partition has a morsel
  // count that is not a power of two, and its descending scores tie across
  // runs. The same table with every row of its first two morsels filtered
  // out: those morsels leave empty runs.
  ProbeTable probe;
  const std::vector<Morsel> planned =
      PartitionRows(probe.key.size(), 4, /*morsel_rows=*/0, kDefaultChunkSize);
  ASSERT_GT(planned.size(), 2u);
  ASSERT_NE(planned.size() & (planned.size() - 1), 0u)
      << planned.size() << " morsels is a power of two";
  ProbeTable leading_empty;
  for (uint64_t i = 0; i < planned[2].begin + 100; ++i) {
    leading_empty.a[i] = 999;
  }
  leading_empty.Load();

  for (const ProbeTable* input : {&probe, &leading_empty}) {
    auto build_query = [&] {
      QueryBuilder qb(*input->table);
      qb.Filter(Var("f_a") < ConstI(400))
          .Project("score", Var("f_b") * ConstI(3) - Var("f_a"))
          .Output("f_key")
          .OrderBy("score", SortDir::kDescending);
      return qb.Build().ValueOrDie();
    };

    // Oracle: stable sort of surviving rows by descending score.
    struct Row {
      int64_t score, key;
      size_t pos;
    };
    std::vector<Row> oracle;
    for (size_t i = 0; i < input->key.size(); ++i) {
      if (input->a[i] < 400) {
        oracle.push_back({input->b[i] * 3 - input->a[i], input->key[i], i});
      }
    }
    std::stable_sort(
        oracle.begin(), oracle.end(),
        [](const Row& x, const Row& y) { return x.score > y.score; });
    size_t ties = 0;
    for (size_t i = 1; i < oracle.size(); ++i) {
      ties += oracle[i].score == oracle[i - 1].score ? 1 : 0;
    }
    ASSERT_GT(ties, oracle.size() / 2);
    if (input == &leading_empty) {
      for (const Row& r : oracle) ASSERT_GE(r.pos, planned[1].end);
    }

    Query serial = build_query();
    ASSERT_TRUE(
        Session({.num_workers = 1}).Run(serial.context(), Interp()).ok());
    Query parallel = build_query();
    auto rep = Session({.num_workers = 4}).Run(parallel.context(), Interp());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_GT(rep.value().morsels, 1u);
    EXPECT_EQ(rep.value().morsels, planned.size());
    EXPECT_TRUE(rep.value().ran_serial_reason.empty())
        << rep.value().ran_serial_reason;

    ASSERT_EQ(serial.num_result_rows(), oracle.size());
    ASSERT_EQ(parallel.num_result_rows(), oracle.size());
    const auto& s_score = serial.result_column("score");
    const auto& s_key = serial.result_column("f_key");
    for (size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(s_score.As<int64_t>()[i], oracle[i].score) << "row " << i;
      ASSERT_EQ(s_key.As<int64_t>()[i], oracle[i].key) << "row " << i;
    }
    // Parallel result must be BIT-identical to serial (stable per-morsel
    // sort + run-order-tie-break merge == global stable sort).
    EXPECT_EQ(parallel.result_column("score").data, s_score.data);
    EXPECT_EQ(parallel.result_column("f_key").data, s_key.data);

    // The same merge over spilled runs, serial and 4-worker.
    for (size_t workers : {size_t{1}, size_t{4}}) {
      QueryOptions budgeted = Interp();
      budgeted.memory_budget = 64 * 1024;
      Query spilled = build_query();
      auto srep =
          Session({.num_workers = workers}).Run(spilled.context(), budgeted);
      ASSERT_TRUE(srep.ok()) << srep.status().ToString();
      EXPECT_GT(srep.value().bytes_spilled, 0u) << "workers=" << workers;
      EXPECT_EQ(spilled.result_column("score").data, s_score.data)
          << "workers=" << workers;
      EXPECT_EQ(spilled.result_column("f_key").data, s_key.data)
          << "workers=" << workers;
    }
  }
}

TEST(JoinBuilderTest, UnorderedOutputMaterializesInRowOrder) {
  ProbeTable probe(20'000);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_b") < ConstI(250)).Output("f_a").Output("f_b");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(
        Session({.num_workers = workers}).Run(q.context(), Interp()).ok());
    std::vector<int64_t> ea, eb;
    for (size_t i = 0; i < probe.key.size(); ++i) {
      if (probe.b[i] < 250) {
        ea.push_back(probe.a[i]);
        eb.push_back(probe.b[i]);
      }
    }
    ASSERT_EQ(q.num_result_rows(), ea.size()) << "workers=" << workers;
    const auto& ca = q.result_column("f_a");
    const auto& cb = q.result_column("f_b");
    for (size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(ca.As<int64_t>()[i], ea[i]) << "row " << i;
      ASSERT_EQ(cb.As<int64_t>()[i], eb[i]) << "row " << i;
    }
  }
}

/// First row at which two result columns of 8-byte values differ, or -1
/// when they are bit-identical (a size mismatch differs at the shorter
/// length).
int64_t FirstDiffRow(const std::vector<uint8_t>& got,
                     const std::vector<uint8_t>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t b = 0; b < n; b += 8) {
    if (std::memcmp(&got[b], &want[b], 8) != 0) {
      return static_cast<int64_t>(b / 8);
    }
  }
  return got.size() == want.size() ? -1 : static_cast<int64_t>(n / 8);
}

TEST(JoinBuilderTest, MultiPartMergeMatchesStableSortAtEveryWorkerCount) {
  // Each case yields enough rows for four key-range merge parts at four
  // workers, and runs at 1, 2 and 4 workers, resident and spilled (64 KiB
  // budget). Every run must equal a std::stable_sort oracle and the
  // 1-worker resident run bit for bit; "tag" is the input row, so rows
  // with equivalent keys must keep input order.
  enum class Case {
    kThreeValues,     // 5/8 of rows 0, 2/8 1, 1/8 2: two splitters are 0
    kConstantKey,     // every splitter equal: one part holds every row
    kDescendingTies,  // 1,000 values, ties across every run
    kF64NaNAndZeros,  // a splitter among -0.0/+0.0, NaNs at the end
    kF64Descending,   // the same keys descending: NaNs first
    kUnordered,       // no ORDER BY: parts split the runs' concatenation
  };
  constexpr uint64_t kRows = 80'000;
  for (Case c : {Case::kThreeValues, Case::kConstantKey,
                 Case::kDescendingTies, Case::kF64NaNAndZeros,
                 Case::kF64Descending, Case::kUnordered}) {
    SCOPED_TRACE("case " + std::to_string(static_cast<int>(c)));
    const bool f64 = c == Case::kF64NaNAndZeros || c == Case::kF64Descending;
    const bool descending =
        c == Case::kDescendingTies || c == Case::kF64Descending;
    std::vector<int64_t> ik(kRows), tag(kRows);
    std::vector<double> fk(kRows);
    Rng rng(19);
    for (uint64_t i = 0; i < kRows; ++i) {
      tag[i] = static_cast<int64_t>(i);
      const int64_t r = rng.NextInRange(0, 999);
      switch (c) {
        case Case::kThreeValues:
          ik[i] = r < 625 ? 0 : (r < 875 ? 1 : 2);
          break;
        case Case::kConstantKey:
          ik[i] = 7;
          break;
        case Case::kDescendingTies:
        case Case::kUnordered:
          ik[i] = r;
          break;
        case Case::kF64NaNAndZeros:
        case Case::kF64Descending:
          // 20% distinct negatives, 25% zeros of either sign, 30% distinct
          // positives, 25% NaN.
          if (r < 200) {
            fk[i] = -static_cast<double>(i + 1) / 4.0;
          } else if (r < 450) {
            fk[i] = r % 2 == 0 ? 0.0 : -0.0;
          } else if (r < 750) {
            fk[i] = static_cast<double>(i + 1) / 4.0;
          } else {
            fk[i] = std::nan("");
          }
          break;
      }
    }
    Table t(Schema({{"k", f64 ? TypeId::kF64 : TypeId::kI64},
                    {"tag", TypeId::kI64}}));
    ASSERT_TRUE(t.column(0)
                    .AppendValues(f64 ? static_cast<const void*>(fk.data())
                                      : static_cast<const void*>(ik.data()),
                                  static_cast<uint32_t>(kRows))
                    .ok());
    ASSERT_TRUE(
        t.column(1).AppendValues(tag.data(), static_cast<uint32_t>(kRows))
            .ok());
    if (f64) {
      // The keys must reach the engine bit for bit. A dictionary or RLE
      // block would fold -0.0 into +0.0; the distinct numbers keep every
      // block plain.
      std::vector<double> stored(kRows);
      ASSERT_TRUE(
          t.column(0).Read(0, static_cast<uint32_t>(kRows), stored.data())
              .ok());
      ASSERT_EQ(std::memcmp(stored.data(), fk.data(), kRows * sizeof(double)),
                0);
    }
    auto build_query = [&] {
      QueryBuilder qb(t);
      if (c == Case::kUnordered) {
        qb.Filter(Var("k") < ConstI(900)).Output("k").Output("tag");
      } else {
        qb.Output("tag").OrderBy(
            "k", descending ? SortDir::kDescending : SortDir::kAscending);
      }
      return qb.Build().ValueOrDie();
    };

    // Oracle: the surviving input rows, stably sorted (NaN after every
    // number, -0.0 equivalent to +0.0; descending reverses the order).
    std::vector<uint64_t> order;
    for (uint64_t i = 0; i < kRows; ++i) {
      if (c != Case::kUnordered || ik[i] < 900) order.push_back(i);
    }
    auto ascending = [&](uint64_t a, uint64_t b) {
      if (f64) {
        if (std::isnan(fk[a])) return false;
        if (std::isnan(fk[b])) return true;
        return fk[a] < fk[b];
      }
      return ik[a] < ik[b];
    };
    if (c != Case::kUnordered) {
      std::stable_sort(order.begin(), order.end(),
                       [&](uint64_t a, uint64_t b) {
                         return descending ? ascending(b, a) : ascending(a, b);
                       });
    }
    ASSERT_GE(order.size(), 4 * 16'384u);
    std::vector<uint8_t> want_k(order.size() * 8), want_tag(order.size() * 8);
    for (size_t r = 0; r < order.size(); ++r) {
      std::memcpy(&want_k[r * 8],
                  f64 ? static_cast<const void*>(&fk[order[r]])
                      : static_cast<const void*>(&ik[order[r]]),
                  8);
      std::memcpy(&want_tag[r * 8], &tag[order[r]], 8);
    }

    std::vector<uint8_t> golden_k, golden_tag;  // 1 worker, resident
    for (bool spilled : {false, true}) {
      for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        SCOPED_TRACE(StrFormat("%s, %zu workers",
                               spilled ? "spilled" : "resident", workers));
        QueryOptions opts = Interp();
        opts.memory_budget = spilled ? 64 * 1024 : uint64_t{1} << 40;
        Query q = build_query();
        auto rep = Session({.num_workers = workers}).Run(q.context(), opts);
        ASSERT_TRUE(rep.ok()) << rep.status().ToString();
        EXPECT_EQ(rep.value().bytes_spilled > 0, spilled);
        EXPECT_EQ(rep.value().merge_parts, workers);
        const auto& got_k = q.result_column("k").data;
        const auto& got_tag = q.result_column("tag").data;
        EXPECT_EQ(FirstDiffRow(got_k, want_k), -1);
        EXPECT_EQ(FirstDiffRow(got_tag, want_tag), -1);
        if (golden_k.empty()) {
          golden_k = got_k;
          golden_tag = got_tag;
        }
        EXPECT_EQ(FirstDiffRow(got_k, golden_k), -1);
        EXPECT_EQ(FirstDiffRow(got_tag, golden_tag), -1);
      }
    }
  }
}

TEST(JoinBuilderTest, OrderByF64PayloadRows) {
  // Ordering by a gathered f64 payload: per-row values are bit-exact, so
  // serial and parallel results are bit-identical even for f64 keys.
  ProbeTable probe(30'000);
  BuildTable build(DenseKeys(1'000));
  auto make = [&] {
    QueryBuilder qb(*probe.table);
    qb.Join(*build.table, "f_key", "d_key", {"d_rate"})
        .Output("f_key")
        .OrderBy("d_rate", SortDir::kAscending);
    return qb.Build().ValueOrDie();
  };
  Query serial = make();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(serial.context(), Interp()).ok());
  Query parallel = make();
  ASSERT_TRUE(
      Session({.num_workers = 4}).Run(parallel.context(), Interp()).ok());
  ASSERT_GT(serial.num_result_rows(), 0u);
  EXPECT_EQ(serial.num_result_rows(), parallel.num_result_rows());
  EXPECT_EQ(serial.result_column("d_rate").data,
            parallel.result_column("d_rate").data);
  EXPECT_EQ(serial.result_column("f_key").data,
            parallel.result_column("f_key").data);
  const auto& rates = serial.result_column("d_rate");
  ASSERT_EQ(rates.type, TypeId::kF64);
  for (uint64_t i = 1; i < serial.num_result_rows(); ++i) {
    ASSERT_LE(rates.As<double>()[i - 1], rates.As<double>()[i]);
  }
}

TEST(JoinBuilderTest, OrderByF64WithNaNsSortsThemLastWithoutUB) {
  // NaN order keys must not hand std::stable_sort an intransitive
  // comparator: the engine's total order puts every NaN after every number.
  const uint64_t n = 10'000;
  Schema schema({{"v", TypeId::kF64}, {"tag", TypeId::kI64}});
  Table t(schema);
  Rng rng(5);
  std::vector<double> v(n);
  std::vector<int64_t> tag(n);
  uint64_t nans = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.NextInRange(0, 9) == 0) {
      v[i] = std::nan("");
      ++nans;
    } else {
      v[i] = static_cast<double>(rng.NextInRange(-1000, 1000)) / 4.0;
    }
    tag[i] = static_cast<int64_t>(i);
  }
  ASSERT_TRUE(
      t.column(0).AppendValues(v.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      t.column(1).AppendValues(tag.data(), static_cast<uint32_t>(n)).ok());

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(t);
    qb.Output("tag").OrderBy("v", SortDir::kAscending);
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(
        Session({.num_workers = workers}).Run(q.context(), Interp()).ok());
    ASSERT_EQ(q.num_result_rows(), n);
    const auto* keys = q.result_column("v").As<double>();
    for (uint64_t i = 0; i + 1 < n - nans; ++i) {
      ASSERT_LE(keys[i], keys[i + 1]) << "row " << i;
    }
    for (uint64_t i = n - nans; i < n; ++i) {
      ASSERT_TRUE(std::isnan(keys[i])) << "row " << i;
    }
  }
}

TEST(JoinBuilderTest, GpuOffloadDeclinesRowMaterialization) {
  // A row query can look exactly like an offloadable map fragment; the
  // device path cannot drive the output-count hooks, so kGpuOffload must
  // fall back to the CPU path and still materialize every row.
  const uint64_t n = 200'000;
  Schema schema({{"c", TypeId::kI64}});
  Table t(schema);
  std::vector<int64_t> c(n);
  for (uint64_t i = 0; i < n; ++i) c[i] = static_cast<int64_t>(i % 1000);
  ASSERT_TRUE(
      t.column(0).AppendValues(c.data(), static_cast<uint32_t>(n)).ok());
  QueryBuilder qb(t);
  qb.Project("p", Var("c") * ConstI(3) + ConstI(1)).Output("p");
  Query q = qb.Build().ValueOrDie();
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kGpuOffload;
  auto rep = Session({.num_workers = 1}).Run(q.context(), qo);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value().device, "cpu");
  ASSERT_EQ(q.num_result_rows(), n);
  const auto* p = q.result_column("p").As<int64_t>();
  for (uint64_t i = 0; i < n; i += 997) {
    ASSERT_EQ(p[i], static_cast<int64_t>(i % 1000) * 3 + 1) << "row " << i;
  }
}

// --------------------------------------------------------- f64 aggregates

TEST(JoinBuilderTest, SumF64AndAvgF64MatchOracle) {
  ProbeTable probe;
  BuildTable build(DenseKeys(1'000));
  const size_t kGroups = 4;

  std::vector<double> expect_sum(kGroups, 0.0);
  std::vector<int64_t> expect_n(kGroups, 0);
  for (size_t i = 0; i < probe.key.size(); ++i) {
    int64_t v;
    double r;
    if (!build.Lookup(probe.key[i], &v, &r)) continue;
    const size_t g = static_cast<size_t>(probe.a[i] / 250);
    expect_sum[g] += static_cast<double>(probe.b[i]) * r;
    ++expect_n[g];
  }

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryBuilder qb(*probe.table);
    qb.Join(*build.table, "f_key", "d_key", {"d_rate"})
        .Aggregate(Var("f_a") / ConstI(250), kGroups)
        .SumF64("wsum", Cast(TypeId::kF64, Var("f_b")) * Var("d_rate"))
        .AvgF64("wavg", Cast(TypeId::kF64, Var("f_b")) * Var("d_rate"))
        .Count("n");
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(
        Session({.num_workers = workers}).Run(q.context(), Interp()).ok());
    for (size_t g = 0; g < kGroups; ++g) {
      EXPECT_EQ(q.aggregate("n")[g], expect_n[g]) << "group " << g;
      // f64 addition is order-sensitive; parallel merges reorder it, so
      // compare with a tight relative tolerance instead of bit equality.
      const double tol = 1e-9 * std::abs(expect_sum[g]) + 1e-9;
      EXPECT_NEAR(q.aggregate_f64("wsum")[g], expect_sum[g], tol)
          << "group " << g << " workers " << workers;
      const double avg =
          expect_n[g] != 0 ? expect_sum[g] / expect_n[g] : 0.0;
      EXPECT_NEAR(q.aggregate_f64("wavg")[g], avg, std::abs(avg) * 1e-9 + 1e-9)
          << "group " << g << " workers " << workers;
    }
  }
}

TEST(JoinBuilderTest, GroupedOrderByMaterializesSortedGroupRows) {
  ProbeTable probe;
  const size_t kGroups = 8;
  QueryBuilder qb(*probe.table);
  qb.Aggregate(Var("f_a") / ConstI(125), kGroups)
      .Sum("sum_b", Var("f_b"))
      .Count("n")
      .OrderBy("sum_b", SortDir::kDescending);
  Query q = qb.Build().ValueOrDie();
  ASSERT_TRUE(Session({.num_workers = 4}).Run(q.context(), Interp()).ok());

  std::vector<int64_t> expect_sum(kGroups, 0), expect_n(kGroups, 0);
  for (size_t i = 0; i < probe.key.size(); ++i) {
    expect_sum[static_cast<size_t>(probe.a[i] / 125)] += probe.b[i];
    expect_n[static_cast<size_t>(probe.a[i] / 125)] += 1;
  }
  ASSERT_EQ(q.num_result_rows(), kGroups);
  const auto& groups = q.result_column("group");
  const auto& sums = q.result_column("sum_b");
  const auto& ns = q.result_column("n");
  for (size_t i = 0; i < kGroups; ++i) {
    const auto g = static_cast<size_t>(groups.As<int64_t>()[i]);
    EXPECT_EQ(sums.As<int64_t>()[i], expect_sum[g]);
    EXPECT_EQ(ns.As<int64_t>()[i], expect_n[g]);
    if (i > 0) {
      ASSERT_GE(sums.As<int64_t>()[i - 1], sums.As<int64_t>()[i]);
    }
  }
}

TEST(JoinBuilderTest, GroupedOrderByNaNAggregateSortsLikeRowOrderBy) {
  // Group sums {3, 1, NaN, 2}: the NaN group sorts last ascending and first
  // descending, as NaN keys do in row ORDER BY, and the other groups stay
  // in key order.
  Schema schema({{"g", TypeId::kI64}, {"v", TypeId::kF64}});
  Table t(schema);
  const std::vector<int64_t> g = {0, 1, 2, 3};
  const std::vector<double> v = {3.0, 1.0, std::nan(""), 2.0};
  ASSERT_TRUE(t.column(0).AppendValues(g.data(), 4).ok());
  ASSERT_TRUE(t.column(1).AppendValues(v.data(), 4).ok());

  for (const auto& [dir, want] :
       {std::pair{SortDir::kAscending, std::vector<int64_t>{1, 3, 0, 2}},
        std::pair{SortDir::kDescending, std::vector<int64_t>{2, 0, 3, 1}}}) {
    QueryBuilder qb(t);
    qb.Aggregate(Var("g"), 4).SumF64("s", Var("v")).OrderBy("s", dir);
    Query q = qb.Build().ValueOrDie();
    ASSERT_TRUE(Session({.num_workers = 1}).Run(q.context(), Interp()).ok());
    ASSERT_EQ(q.num_result_rows(), 4u);
    const int64_t* groups = q.result_column("group").As<int64_t>();
    EXPECT_EQ(std::vector<int64_t>(groups, groups + 4), want);
    const double* sums = q.result_column("s").As<double>();
    for (size_t i = 0; i < 4; ++i) {
      if (std::isnan(v[static_cast<size_t>(want[i])])) {
        EXPECT_TRUE(std::isnan(sums[i])) << i;
      } else {
        EXPECT_EQ(sums[i], v[static_cast<size_t>(want[i])]) << i;
      }
    }
  }
}

// Acceptance: a join + ORDER BY + AvgF64 query returns correct materialized
// ordered output under 4 concurrent Session clients.
TEST(JoinBuilderTest, JoinOrderByAvgF64Under4ConcurrentSessionClients) {
  ProbeTable probe;
  BuildTable build(DenseKeys(1'000));
  const size_t kGroups = 5;

  std::vector<double> expect_sum(kGroups, 0.0);
  std::vector<int64_t> expect_n(kGroups, 0);
  for (size_t i = 0; i < probe.key.size(); ++i) {
    if (probe.b[i] >= 800) continue;
    int64_t v;
    double r;
    if (!build.Lookup(probe.key[i], &v, &r)) continue;
    const size_t g = static_cast<size_t>(probe.a[i] / 200);
    expect_sum[g] += r;
    ++expect_n[g];
  }
  std::vector<double> expect_avg(kGroups);
  std::vector<size_t> order(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    expect_avg[g] = expect_n[g] != 0 ? expect_sum[g] / expect_n[g] : 0.0;
    order[g] = g;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return expect_avg[x] > expect_avg[y];
  });

  SessionOptions so;
  so.num_workers = 4;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  constexpr int kClients = 4;
  std::vector<Query> queries;
  for (int c = 0; c < kClients; ++c) {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_b") < ConstI(800))
        .Join(*build.table, "f_key", "d_key", {"d_rate"})
        .Aggregate(Var("f_a") / ConstI(200), kGroups)
        .AvgF64("avg_rate", Var("d_rate"))
        .Count("n")
        .OrderBy("avg_rate", SortDir::kDescending);
    queries.push_back(qb.Build().ValueOrDie());
  }
  std::vector<QueryHandle> handles;
  for (Query& q : queries) handles.push_back(session.Submit(q.context(), qo));
  for (QueryHandle& h : handles) {
    auto r = h.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (Query& q : queries) {
    ASSERT_EQ(q.num_result_rows(), kGroups);
    const auto& groups = q.result_column("group");
    const auto& avgs = q.result_column("avg_rate");
    const auto& ns = q.result_column("n");
    for (size_t i = 0; i < kGroups; ++i) {
      const auto g = static_cast<size_t>(order[i]);
      EXPECT_EQ(groups.As<int64_t>()[i], static_cast<int64_t>(g)) << i;
      EXPECT_EQ(ns.As<int64_t>()[i], expect_n[g]) << i;
      EXPECT_NEAR(avgs.As<double>()[i], expect_avg[g],
                  std::abs(expect_avg[g]) * 1e-9 + 1e-9)
          << i;
    }
  }
}

}  // namespace
}  // namespace avm::engine
