// Out-of-core ORDER BY cost (docs/SPILL.md): the same many-to-many join +
// ORDER BY — filtered probe joined against a duplicate-key build side,
// three output columns merge-sorted at the barrier — run unbudgeted
// (resident output windows, in-memory merge) and under a memory budget far
// smaller than the output windows (per-morsel scratch windows sorted and
// spilled as runs, k-way streaming merge from disk), serial and with 4
// workers. The outputs are bit-identical by construction (the differential
// suite enforces it); these rows price the spill path. Results land in
// BENCH_results.json via bench_util's row-replacing sink, with the spill_*
// and mem_* counters attached through ReportSpill.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "util/rng.h"

namespace {

using namespace avm;
using dsl::ConstI;
using dsl::Var;

constexpr uint64_t kProbeRows = 400'000;
constexpr int64_t kKeyHi = 999;

// Output windows for the unbudgeted run are ~400k rows x fan-out 2 x
// 4 cols x 8 B ≈ 25 MB; this budget forces every morsel through the
// spill path while leaving room for the build-side tables.
constexpr uint64_t kTightBudget = 1u << 20;  // 1 MiB

struct SpillFixture {
  std::unique_ptr<Table> probe;  ///< f_key / f_a / f_b fact rows
  std::unique_ptr<Table> dup;    ///< d_key / d_val, 1..3 copies per key

  SpillFixture() {
    Schema ps({{"f_key", TypeId::kI64},
               {"f_a", TypeId::kI64},
               {"f_b", TypeId::kI64}});
    probe = std::make_unique<Table>(ps);
    Rng rng(4242);
    std::vector<int64_t> key(kProbeRows), a(kProbeRows), b(kProbeRows);
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      key[i] = rng.NextInRange(-3, kKeyHi + 40);
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
    }
    probe->column(0)
        .AppendValues(key.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");
    probe->column(1)
        .AppendValues(a.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");
    probe->column(2)
        .AppendValues(b.data(), static_cast<uint32_t>(kProbeRows))
        .Abort("append");

    Schema ds({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}});
    dup = std::make_unique<Table>(ds);
    std::vector<int64_t> dk, dv;
    for (int64_t k = 0; k <= kKeyHi; ++k) {
      const int64_t copies = rng.NextInRange(1, 3);
      for (int64_t c = 0; c < copies; ++c) {
        dk.push_back(k);
        dv.push_back(rng.NextInRange(1, 500));
      }
    }
    dup->column(0)
        .AppendValues(dk.data(), static_cast<uint32_t>(dk.size()))
        .Abort("append");
    dup->column(1)
        .AppendValues(dv.data(), static_cast<uint32_t>(dv.size()))
        .Abort("append");
  }
};

SpillFixture& Fixture() {
  static SpillFixture f;
  return f;
}

engine::Query BuildSpillQuery(SpillFixture& f) {
  engine::QueryBuilder qb(*f.probe);
  qb.Filter(Var("f_a") < ConstI(800))
      .Join(*f.dup, "f_key", "d_key", {"d_val"})
      .Output("f_key")
      .Output("f_b")
      .Output("d_val")
      .OrderBy("f_key");
  return qb.Build().ValueOrDie();
}

/// One session per benchmark; the same Query is re-submitted every
/// iteration (the prepare hook re-decides resident-vs-spill per
/// submission), so each timed iteration covers join probe, window
/// materialization, sort, and — when budgeted — spill + k-way merge.
void RunSpillOrderBy(benchmark::State& state, uint64_t budget,
                     size_t workers, const char* label) {
  SpillFixture& f = Fixture();
  engine::QueryOptions qo;
  qo.strategy = engine::ExecutionStrategy::kInterpret;
  qo.memory_budget = budget;
  engine::Session session({.num_workers = workers});
  engine::Query q = BuildSpillQuery(f);
  engine::ExecReport last;
  {
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto r = session.Run(q.context(), qo);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = r.value();
    benchmark::DoNotOptimize(q.num_result_rows());
  }
  avm::benchutil::ReportTuples(state, kProbeRows, label);
  avm::benchutil::ReportSpill(state, last);
}

void BM_SpillOrderBy_InMemory(benchmark::State& state) {
  RunSpillOrderBy(state, /*budget=*/0, 1, "interp-resident");
}
BENCHMARK(BM_SpillOrderBy_InMemory)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SpillOrderBy_Spilled(benchmark::State& state) {
  RunSpillOrderBy(state, kTightBudget, 1, "interp-spilled");
}
BENCHMARK(BM_SpillOrderBy_Spilled)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SpillOrderBy_InMemoryParallel4(benchmark::State& state) {
  RunSpillOrderBy(state, /*budget=*/0, 4, "interp-4w-resident");
}
BENCHMARK(BM_SpillOrderBy_InMemoryParallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SpillOrderBy_SpilledParallel4(benchmark::State& state) {
  RunSpillOrderBy(state, kTightBudget, 4, "interp-4w-spilled");
}
BENCHMARK(BM_SpillOrderBy_SpilledParallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
