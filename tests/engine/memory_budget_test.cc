// Out-of-core execution tests (docs/SPILL.md): a many-to-many join +
// ORDER BY over a table larger than its memory budget must spill sorted
// runs to disk and still produce byte-identical output at any worker
// count; budget edges (exactly-fits, one-byte-short, smaller than a
// single morsel window) must behave deterministically; concurrent
// queries sharing one session-wide AVM_MEMORY_BUDGET tracker must
// complete without deadlock or wrong rows; and a submission that fails
// must leave nothing behind for the next one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/memory_tracker.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "storage/spill_file.h"
#include "tests/temp_dir.h"
#include "util/rng.h"

namespace avm::engine {
namespace {

using dsl::ConstI;
using dsl::Var;

/// Explicit effectively-unlimited budget for golden/in-memory runs. A
/// budget of 0 would fall back to the session-wide AVM_MEMORY_BUDGET, so
/// under the CI spill-stress lane (which forces that env var low) the
/// "unbudgeted" baselines would spill and their bytes_spilled == 0
/// assertions would lie.
constexpr uint64_t kUnlimited = uint64_t{1} << 40;

QueryOptions Opts(uint64_t budget,
                  ExecutionStrategy strategy = ExecutionStrategy::kInterpret) {
  QueryOptions o;
  o.strategy = strategy;
  o.memory_budget = budget;
  return o;
}

/// Probe fact table f_key / f_a / f_b, keys covering [0, key_hi] with some
/// misses beyond the build domain.
struct ProbeTable {
  std::unique_ptr<Table> table;

  explicit ProbeTable(uint64_t n, int64_t key_hi, uint64_t seed = 17) {
    Schema schema({{"f_key", TypeId::kI64},
                   {"f_a", TypeId::kI64},
                   {"f_b", TypeId::kI64}});
    table = std::make_unique<Table>(schema);
    Rng rng(seed);
    std::vector<int64_t> key(n), a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
      key[i] = rng.NextInRange(-3, key_hi + 40);
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
    }
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

/// Build table with DUPLICATE keys (many-to-many fan-out): every key in
/// [0, key_hi] appears 1-3 times.
struct DupBuildTable {
  std::unique_ptr<Table> table;

  explicit DupBuildTable(int64_t key_hi, uint64_t seed = 23) {
    Schema schema({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}});
    table = std::make_unique<Table>(schema);
    Rng rng(seed);
    std::vector<int64_t> key, val;
    for (int64_t k = 0; k <= key_hi; ++k) {
      const int64_t copies = rng.NextInRange(1, 3);
      for (int64_t c = 0; c < copies; ++c) {
        key.push_back(k);
        val.push_back(rng.NextInRange(1, 500));
      }
    }
    EXPECT_TRUE(table->column(0)
                    .AppendValues(key.data(),
                                  static_cast<uint32_t>(key.size()))
                    .ok());
    EXPECT_TRUE(table->column(1)
                    .AppendValues(val.data(),
                                  static_cast<uint32_t>(val.size()))
                    .ok());
  }
};

Query BuildJoinOrderBy(const ProbeTable& probe, const DupBuildTable& build) {
  QueryBuilder qb(*probe.table);
  qb.Filter(Var("f_a") < ConstI(800))
      .Join(*build.table, "f_key", "d_key", {"d_val"})
      .Output("f_key")
      .Output("f_b")
      .Output("d_val")
      .OrderBy("f_key");
  return qb.Build().ValueOrDie();
}

Query BuildRowOrderBy(const ProbeTable& probe) {
  QueryBuilder qb(*probe.table);
  qb.Output("f_a").Output("f_b").OrderBy("f_a");
  return qb.Build().ValueOrDie();
}

void ExpectSameColumns(Query& got, Query& want) {
  ASSERT_EQ(got.num_result_rows(), want.num_result_rows());
  ASSERT_EQ(got.result_columns().size(), want.result_columns().size());
  for (const Query::ResultColumn& wc : want.result_columns()) {
    EXPECT_EQ(got.result_column(wc.name).data, wc.data)
        << "column " << wc.name << " differs";
  }
}

// The acceptance test of the out-of-core tentpole: a spilled many-to-many
// join + ORDER BY is bit-identical to the unbudgeted in-memory run, both
// serial and with 4 workers, under both execution strategies.
TEST(MemoryBudgetTest, SpilledJoinOrderByBitIdenticalToInMemory) {
  ProbeTable probe(40'000, 799);
  DupBuildTable build(799);

  Query golden = BuildJoinOrderBy(probe, build);
  auto grep =
      Session({.num_workers = 1}).Run(golden.context(), Opts(kUnlimited));
  ASSERT_TRUE(grep.ok()) << grep.status().ToString();
  EXPECT_EQ(grep.value().bytes_spilled, 0u);
  EXPECT_EQ(grep.value().spill_runs, 0u);
  ASSERT_GT(golden.num_result_rows(), 0u);

  // Output windows are ~40k rows x fan_out x 24B >> this budget.
  const uint64_t kBudget = 256 * 1024;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kInterpret, ExecutionStrategy::kAdaptiveJit}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      Query q = BuildJoinOrderBy(probe, build);
      auto rep = Session({.num_workers = workers})
                     .Run(q.context(), Opts(kBudget, strategy));
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_GT(rep.value().bytes_spilled, 0u)
          << "workers=" << workers << " strategy=" << StrategyName(strategy);
      EXPECT_GE(rep.value().spill_runs, 2u);
      EXPECT_GT(rep.value().peak_tracked_bytes, 0u);
      ExpectSameColumns(q, golden);
    }
  }
}

// An unordered row query (Output without OrderBy) takes the spill path
// too — the merge has no key, so the runs drain in morsel order.
TEST(MemoryBudgetTest, SpilledUnorderedRowQueryMatchesInMemory) {
  ProbeTable probe(30'000, 500);
  auto build_query = [&] {
    QueryBuilder qb(*probe.table);
    qb.Filter(Var("f_b") < ConstI(700)).Output("f_a").Output("f_b");
    return qb.Build().ValueOrDie();
  };
  Query golden = build_query();
  ASSERT_TRUE(
      Session({.num_workers = 1}).Run(golden.context(), Opts(kUnlimited)).ok());

  for (size_t workers : {size_t{1}, size_t{4}}) {
    Query q = build_query();
    auto rep =
        Session({.num_workers = workers}).Run(q.context(), Opts(64 * 1024));
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_GT(rep.value().bytes_spilled, 0u);
    ExpectSameColumns(q, golden);
  }
}

// Budget edges around the exact window size: exactly-fits stays in
// memory; one byte short spills; both produce identical rows.
TEST(MemoryBudgetTest, BudgetEdgeAtExactWindowBytes) {
  const uint64_t n = 20'000;
  ProbeTable probe(n, 300);
  // No joins/dims/aggregates: the query's only persistent charge is the
  // two i64 output windows.
  const uint64_t window_bytes = n * (8 + 8);

  Query golden = BuildRowOrderBy(probe);
  ASSERT_TRUE(
      Session({.num_workers = 1}).Run(golden.context(), Opts(kUnlimited)).ok());

  {
    Query q = BuildRowOrderBy(probe);
    auto rep = Session({.num_workers = 1}).Run(q.context(), Opts(window_bytes));
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep.value().bytes_spilled, 0u) << "budget exactly fits";
    EXPECT_EQ(rep.value().spill_runs, 0u);
    ExpectSameColumns(q, golden);
  }
  {
    Query q = BuildRowOrderBy(probe);
    auto rep =
        Session({.num_workers = 1}).Run(q.context(), Opts(window_bytes - 1));
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_GT(rep.value().bytes_spilled, 0u) << "one byte short must spill";
    ExpectSameColumns(q, golden);
  }
}

// A budget that cannot hold even one chunk-sized morsel scratch window is
// a configuration error: the query must fail with kResourceExhausted, not
// hang, crash, or silently ignore the budget.
TEST(MemoryBudgetTest, BudgetSmallerThanOneMorselWindowFailsCleanly) {
  ProbeTable probe(20'000, 300);
  Query q = BuildRowOrderBy(probe);
  // One chunk (1024 rows) of the two i64 windows needs 16 KiB.
  auto rep = Session({.num_workers = 1}).Run(q.context(), Opts(4096));
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kResourceExhausted)
      << rep.status().ToString();
}

// Several clients of one Session share the session-wide AVM_MEMORY_BUDGET
// tracker: whoever claims the budget first keeps windows resident, the
// rest spill — everyone completes (no deadlock: scratch charges are
// transient and never block) with byte-identical rows.
TEST(MemoryBudgetTest, ConcurrentQueriesShareSessionBudget) {
  ProbeTable probe(20'000, 300);
  Query golden = BuildRowOrderBy(probe);
  ASSERT_TRUE(
      Session({.num_workers = 1}).Run(golden.context(), Opts(kUnlimited)).ok());

  // Window bytes per query: 20'000 x 16 = 320'000; the shared budget fits
  // at most one query's resident windows.
  ASSERT_EQ(::setenv("AVM_MEMORY_BUDGET", "400000", 1), 0);
  {
    SessionOptions so;
    so.num_workers = 4;
    Session session(so);
    QueryOptions qo;
    qo.strategy = ExecutionStrategy::kInterpret;

    constexpr size_t kClients = 3;
    std::vector<Query> queries;
    queries.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      queries.push_back(BuildRowOrderBy(probe));
    }
    std::vector<QueryHandle> handles;
    handles.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      handles.push_back(session.Submit(queries[i].context(), qo));
    }
    uint64_t total_spilled = 0;
    for (size_t i = 0; i < kClients; ++i) {
      auto rep = handles[i].Wait();
      ASSERT_TRUE(rep.ok()) << "client " << i << ": "
                            << rep.status().ToString();
      total_spilled += rep.value().bytes_spilled;
      ExpectSameColumns(queries[i], golden);
    }
    // The budget fits one resident window set, so with three concurrent
    // clients at least one must have spilled.
    EXPECT_GT(total_spilled, 0u);
  }
  ASSERT_EQ(::unsetenv("AVM_MEMORY_BUDGET"), 0);
}

// Re-submitting the same Query alternately with and without a budget must
// re-decide resident-vs-spill per submission (the prepare hook rebinds
// windows each time) and keep producing identical rows.
TEST(MemoryBudgetTest, ResubmissionSwitchesBetweenResidentAndSpilled) {
  ProbeTable probe(15'000, 200);
  Query golden = BuildRowOrderBy(probe);
  ASSERT_TRUE(
      Session({.num_workers = 1}).Run(golden.context(), Opts(kUnlimited)).ok());

  Query q = BuildRowOrderBy(probe);
  for (int round = 0; round < 3; ++round) {
    const uint64_t budget = (round % 2 == 0) ? 48 * 1024 : kUnlimited;
    auto rep = Session({.num_workers = 1}).Run(q.context(), Opts(budget));
    ASSERT_TRUE(rep.ok()) << "round " << round << ": "
                          << rep.status().ToString();
    if (budget != kUnlimited) {
      EXPECT_GT(rep.value().bytes_spilled, 0u) << "round " << round;
    } else {
      EXPECT_EQ(rep.value().bytes_spilled, 0u) << "round " << round;
    }
    ExpectSameColumns(q, golden);
  }
}

// A submission that fails mid-spill leaves no runs and no spill file
// behind: re-submitting the same Query, resident or spilled, returns
// exactly the golden rows, and a spilled submission that succeeds leaves
// no file either.
TEST(MemoryBudgetTest, ResubmissionAfterFailedSpillMergesOnlyItsOwnRuns) {
  ScopedSpillDir spill_dir("avm_memory_budget_test");
  ProbeTable probe(100'000, 300);
  Query golden = BuildRowOrderBy(probe);
  ASSERT_TRUE(
      Session({.num_workers = 1}).Run(golden.context(), Opts(kUnlimited)).ok());

  const uint64_t kBudget = 64 * 1024;
  for (uint64_t resubmit_budget : {kUnlimited, kBudget}) {
    Query q = BuildRowOrderBy(probe);
    {
      // The 64 KiB budget spills 64 KiB runs; the write limit lets three
      // through and fails the fourth append, mid-spill.
      struct WriteLimit {
        WriteLimit() {
          storage::SpillFile::SetWriteLimitForTesting(3 * kBudget);
        }
        ~WriteLimit() { storage::SpillFile::SetWriteLimitForTesting(-1); }
      } limit;
      auto failed =
          Session({.num_workers = 1}).Run(q.context(), Opts(kBudget));
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
          << failed.status().ToString();
      ASSERT_GE(q.context().spill_stats().spill_runs, 1u);
      ASSERT_TRUE(spill_dir.used());
      EXPECT_EQ(spill_dir.files(), 0u) << "a failed spill left its file";
    }
    auto rep =
        Session({.num_workers = 1}).Run(q.context(), Opts(resubmit_budget));
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep.value().bytes_spilled > 0, resubmit_budget == kBudget);
    EXPECT_EQ(spill_dir.files(), 0u) << "a spilled query left its file";
    ExpectSameColumns(q, golden);
  }
}

// Transient scratch counts toward used() but never fails a persistent
// charge; persistent charges still fail against each other.
TEST(MemoryBudgetTest, TransientScratchNeverFailsPersistentCharges) {
  MemoryTracker tracker(1000);
  {
    ScopedTransientCharge scratch(&tracker, 1000);
    EXPECT_EQ(tracker.available(), 0u);
    ASSERT_TRUE(tracker.TryCharge(10, "side table").ok());
    EXPECT_EQ(tracker.used(), 1010u);
    Status over = tracker.TryCharge(991, "output windows");
    EXPECT_EQ(over.code(), StatusCode::kResourceExhausted) << over.ToString();
  }
  EXPECT_EQ(tracker.used(), 10u);
  EXPECT_EQ(tracker.peak(), 1010u);
  tracker.Release(10);
  EXPECT_EQ(tracker.used(), 0u);
}

}  // namespace
}  // namespace avm::engine
