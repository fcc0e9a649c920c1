// Hash-join probe strategies through engine::Session: the same
// star-schema join (fact probe against a densified dimension, SUM + COUNT
// over the matches) under vectorized interpretation, the adaptive JIT, and
// a 4-worker Session, plus a 4-client × 4-worker concurrent variant; then
// the build-side families the dense fast path cannot serve — duplicate-
// heavy keys (avg fan-out 4, many-to-many pairs) and sparse/negative
// 64-bit keys — probed through the CSR hash table, with a dense-vs-forced-
// hash pairing on identical unique-key data to isolate the probe cost.
// Results land in BENCH_results.json via bench_util's row-replacing sink.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "relational/join.h"
#include "storage/datagen.h"
#include "util/rng.h"

namespace {

using namespace avm;

constexpr uint64_t kProbeRows = 1'000'000;
constexpr int64_t kDimRows = 50'000;  // ~5% of probe rows, 80% hit rate

// Sparse 64-bit key for index i: spread over a huge, partly negative
// domain (far beyond the ~16M dense cap) while staying collision-free.
int64_t SparseKey(int64_t i) { return i * 2'000'003 - 50'000'000'000LL; }

struct JoinFixture {
  std::unique_ptr<Table> probe;
  std::unique_ptr<Table> dim;
  std::unique_ptr<Table> dim_dup;       ///< same key domain, 1..7 copies each
  std::unique_ptr<Table> probe_sparse;  ///< SparseKey-mapped probe keys
  std::unique_ptr<Table> dim_sparse;    ///< SparseKey(0..kDimRows), unique

  JoinFixture() {
    Schema ps({{"f_key", TypeId::kI64}, {"f_val", TypeId::kI64}});
    probe = std::make_unique<Table>(ps);
    Rng rng(1234);
    std::vector<int64_t> fk(kProbeRows), fv(kProbeRows);
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      // 80% of probe keys land inside the dimension's [0, kDimRows) domain.
      fk[i] = rng.NextInRange(0, (kDimRows * 5) / 4 - 1);
      fv[i] = rng.NextInRange(1, 999);
    }
    probe->column(0)
        .AppendValues(fk.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");
    probe->column(1)
        .AppendValues(fv.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");

    Schema ds({{"d_key", TypeId::kI64}, {"d_weight", TypeId::kI64}});
    dim = std::make_unique<Table>(ds);
    std::vector<int64_t> dk(kDimRows), dw(kDimRows);
    for (int64_t i = 0; i < kDimRows; ++i) {
      dk[static_cast<size_t>(i)] = i;
      dw[static_cast<size_t>(i)] = rng.NextInRange(1, 99);
    }
    dim->column(0)
        .AppendValues(dk.data(), static_cast<uint32_t>(kDimRows))
        .Abort("append");
    dim->column(1)
        .AppendValues(dw.data(), static_cast<uint32_t>(kDimRows))
        .Abort("append");

    // Duplicate-heavy dimension: every key in [0, kDimRows) appears 1..7
    // times (avg fan-out 4 on a probe hit) — the many-to-many CSR path.
    dim_dup = std::make_unique<Table>(ds);
    std::vector<int64_t> ddk, ddw;
    for (int64_t i = 0; i < kDimRows; ++i) {
      const int64_t copies = rng.NextInRange(1, 7);
      for (int64_t c = 0; c < copies; ++c) {
        ddk.push_back(i);
        ddw.push_back(rng.NextInRange(1, 99));
      }
    }
    dim_dup->column(0)
        .AppendValues(ddk.data(), static_cast<uint32_t>(ddk.size()))
        .Abort("append");
    dim_dup->column(1)
        .AppendValues(ddw.data(), static_cast<uint32_t>(ddw.size()))
        .Abort("append");

    // Sparse-key pair: the same 80% hit rate and unique build keys as the
    // dense fixture, but keys spread (negative, >2^24) so only the hash
    // table can serve them.
    probe_sparse = std::make_unique<Table>(ps);
    std::vector<int64_t> sk(kProbeRows);
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      sk[i] = SparseKey(rng.NextInRange(0, (kDimRows * 5) / 4 - 1));
    }
    probe_sparse->column(0)
        .AppendValues(sk.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");
    probe_sparse->column(1)
        .AppendValues(fv.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");
    dim_sparse = std::make_unique<Table>(ds);
    std::vector<int64_t> sdk(kDimRows);
    for (int64_t i = 0; i < kDimRows; ++i) {
      sdk[static_cast<size_t>(i)] = SparseKey(i);
    }
    dim_sparse->column(0)
        .AppendValues(sdk.data(), static_cast<uint32_t>(kDimRows))
        .Abort("append");
    dim_sparse->column(1)
        .AppendValues(dw.data(), static_cast<uint32_t>(kDimRows))
        .Abort("append");
  }
};

JoinFixture& Fixture() {
  static JoinFixture f;
  return f;
}

void RunJoin(benchmark::State& state, engine::ExecutionStrategy strategy,
             size_t workers, const char* label) {
  JoinFixture& f = Fixture();
  engine::QueryOptions qo;
  qo.strategy = strategy;
  // One session per benchmark: the trace cache persists across iterations,
  // so the JIT variant measures steady-state (compiled) probes.
  engine::Session session({.num_workers = workers});
  engine::Query q =
      relational::MakeJoinQuery(*f.probe, "f_key", "f_val", *f.dim, "d_key",
                                "d_weight")
          .ValueOrDie();
  // Warm the trace cache outside the timing loop: the JIT variant measures
  // steady-state compiled probes, not one-off host-compiler invocations.
  {
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  for (auto _ : state) {
    q.ResetAggregates();
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(q.aggregate("revenue")[0]);
  }
  avm::benchutil::ReportTuples(state, kProbeRows, label);
}

void BM_JoinProbe_Interp(benchmark::State& state) {
  RunJoin(state, engine::ExecutionStrategy::kInterpret, 1, "interp");
}
BENCHMARK(BM_JoinProbe_Interp)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinProbe_AdaptiveJit(benchmark::State& state) {
  RunJoin(state, engine::ExecutionStrategy::kAdaptiveJit, 1, "adaptive-jit");
}
BENCHMARK(BM_JoinProbe_AdaptiveJit)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinProbe_SessionParallel4(benchmark::State& state) {
  RunJoin(state, engine::ExecutionStrategy::kAdaptiveJit, 4,
          "session-4w");
}
BENCHMARK(BM_JoinProbe_SessionParallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// 4 concurrent clients × 4 workers on ONE session: join probes interleave
/// morsel-by-morsel over the shared crew.
void BM_JoinProbe_Session4Clients(benchmark::State& state) {
  JoinFixture& f = Fixture();
  engine::SessionOptions so;
  so.num_workers = 4;
  engine::Session session(so);
  engine::QueryOptions qo;
  qo.strategy = engine::ExecutionStrategy::kAdaptiveJit;

  constexpr int kClients = 4;
  std::vector<engine::Query> queries;
  for (int c = 0; c < kClients; ++c) {
    queries.push_back(relational::MakeJoinQuery(*f.probe, "f_key", "f_val",
                                                *f.dim, "d_key", "d_weight")
                          .ValueOrDie());
  }
  for (auto _ : state) {
    std::vector<engine::QueryHandle> handles;
    for (engine::Query& q : queries) {
      q.ResetAggregates();
      handles.push_back(session.Submit(q.context(), qo));
    }
    for (engine::QueryHandle& h : handles) {
      auto r = h.Wait();
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    }
  }
  avm::benchutil::ReportTuples(state, kProbeRows * kClients,
                               "session-4w-4clients");
}
BENCHMARK(BM_JoinProbe_Session4Clients)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Build-side families through the QueryBuilder knob: probe `probe_table`
/// against `dim_table` with the given JoinStrategy and worker count. The
/// dense fixture under kAuto takes the key-indexed fast path; the same
/// data under kHash — and the duplicate/sparse fixtures under any
/// strategy — goes through the CSR hash table.
void RunBuilderJoin(benchmark::State& state, const Table& probe_table,
                    const Table& dim_table, engine::JoinStrategy strategy,
                    size_t workers, const char* label) {
  engine::QueryOptions qo;
  qo.strategy = engine::ExecutionStrategy::kInterpret;
  engine::Session session({.num_workers = workers});
  engine::QueryBuilder qb(probe_table);
  qb.SetJoinStrategy(strategy)
      .Join(dim_table, "f_key", "d_key", {"d_weight"})
      .Sum("revenue", dsl::Var("f_val") * dsl::Var("d_weight"))
      .Count("matches");
  engine::Query q = qb.Build().ValueOrDie();
  {
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  for (auto _ : state) {
    q.ResetAggregates();
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(q.aggregate("matches")[0]);
  }
  avm::benchutil::ReportTuples(state, kProbeRows, label);
}

void BM_JoinBuild_DensePath(benchmark::State& state) {
  JoinFixture& f = Fixture();
  RunBuilderJoin(state, *f.probe, *f.dim, engine::JoinStrategy::kAuto, 1,
                 "interp-dense");
}
BENCHMARK(BM_JoinBuild_DensePath)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinBuild_HashForced(benchmark::State& state) {
  // Identical data to BM_JoinBuild_DensePath — the delta is pure CSR
  // bucket-walk overhead versus the key-indexed gather.
  JoinFixture& f = Fixture();
  RunBuilderJoin(state, *f.probe, *f.dim, engine::JoinStrategy::kHash, 1,
                 "interp-hash-forced");
}
BENCHMARK(BM_JoinBuild_HashForced)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinBuild_DupFanOut4(benchmark::State& state) {
  JoinFixture& f = Fixture();
  RunBuilderJoin(state, *f.probe, *f.dim_dup, engine::JoinStrategy::kAuto, 1,
                 "interp-dup-fanout4");
}
BENCHMARK(BM_JoinBuild_DupFanOut4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_JoinBuild_DupFanOut4Parallel4(benchmark::State& state) {
  JoinFixture& f = Fixture();
  RunBuilderJoin(state, *f.probe, *f.dim_dup, engine::JoinStrategy::kAuto, 4,
                 "interp-4w-dup-fanout4");
}
BENCHMARK(BM_JoinBuild_DupFanOut4Parallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_JoinBuild_SparseKeys(benchmark::State& state) {
  JoinFixture& f = Fixture();
  RunBuilderJoin(state, *f.probe_sparse, *f.dim_sparse,
                 engine::JoinStrategy::kAuto, 1, "interp-sparse-hash");
}
BENCHMARK(BM_JoinBuild_SparseKeys)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// ORDER BY + materialization: filtered probe rows joined, materialized,
/// and merge-sorted at the barrier (row-mode QueryBuilder path).
void BM_JoinOrderByMaterialize(benchmark::State& state,
                               engine::ExecutionStrategy strategy,
                               size_t workers, const char* label) {
  JoinFixture& f = Fixture();
  engine::QueryOptions qo;
  qo.strategy = strategy;
  engine::Session session({.num_workers = workers});
  auto build = [&] {
    engine::QueryBuilder qb(*f.probe);
    qb.Filter(dsl::Var("f_val") < dsl::ConstI(200))
        .Join(*f.dim, "f_key", "d_key", {"d_weight"})
        .Output("f_val")
        .OrderBy("d_weight", engine::SortDir::kDescending);
    return qb.Build().ValueOrDie();
  };
  // Warm the trace cache outside the timing loop (deterministic partitions
  // make the warmup's compiled traces serve every timed iteration).
  {
    engine::Query q = build();
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  for (auto _ : state) {
    engine::Query q = build();
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(q.num_result_rows());
  }
  avm::benchutil::ReportTuples(state, kProbeRows, label);
}

void BM_JoinOrderBy_Interp(benchmark::State& state) {
  BM_JoinOrderByMaterialize(state, engine::ExecutionStrategy::kInterpret, 1,
                            "interp");
}
BENCHMARK(BM_JoinOrderBy_Interp)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinOrderBy_Parallel4(benchmark::State& state) {
  BM_JoinOrderByMaterialize(state, engine::ExecutionStrategy::kInterpret, 4,
                            "interp-4w");
}
BENCHMARK(BM_JoinOrderBy_Parallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The previously-DECLINED plan: join payload re-gather + post-filter
// compute + condensing ORDER BY output all compile under the
// selection-aware trace ABI (docs/TRACE_ABI.md) — before it, every hot
// fragment of this pipeline silently fell back to interpretation. The
// session (and its trace cache) persists across iterations, so this
// measures steady-state compiled probes.
void BM_JoinOrderBy_AdaptiveJit(benchmark::State& state) {
  BM_JoinOrderByMaterialize(state, engine::ExecutionStrategy::kAdaptiveJit, 1,
                            "adaptive-jit");
}
BENCHMARK(BM_JoinOrderBy_AdaptiveJit)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_JoinOrderBy_Session4(benchmark::State& state) {
  BM_JoinOrderByMaterialize(state, engine::ExecutionStrategy::kAdaptiveJit, 4,
                            "session-4w");
}
BENCHMARK(BM_JoinOrderBy_Session4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
