// TPC-H Q1 analogue under every execution strategy the framework provides
// (the paper's Plan step 1: X100-style vectorized and HyPer-style compiled
// execution inside the same system, plus the adaptive VM).
//
//   $ ./tpch_q1 [num_rows]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "engine/session.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"
#include "util/timer.h"

using namespace avm;
using namespace avm::relational;

namespace {

void PrintResult(const char* name, const Q1Result& r, double ms,
                 uint64_t rows) {
  std::printf("%-28s %8.2f ms  %7.1f Mrows/s\n", name, ms,
              rows / ms / 1e3);
  (void)r;
}

template <typename Fn>
Q1Result Timed(const char* name, uint64_t rows, Fn&& fn) {
  Stopwatch sw;
  auto r = fn();
  double ms = sw.ElapsedMillis();
  Q1Result value = std::move(r).ValueOrDie();
  PrintResult(name, value, ms, rows);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  LineitemSpec spec;
  spec.num_rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 600'000;
  std::printf("generating lineitem with %llu rows...\n",
              (unsigned long long)spec.num_rows);
  auto table = MakeLineitem(spec);
  std::printf("compressed to %.1f MiB (%.2fx)\n\n",
              table->EncodedBytes() / 1048576.0,
              static_cast<double>(spec.num_rows) * 42 /
                  table->EncodedBytes());

  const uint64_t n = table->num_rows();
  Q1Result oracle = Timed("scalar reference", n,
                          [&] { return RunQ1Scalar(*table); });
  Q1Result vec = Timed("vectorized (X100-style)", n,
                       [&] { return RunQ1Vectorized(*table); });
  Q1Result compact = Timed("vectorized + compact types", n,
                           [&] { return RunQ1VectorizedCompact(*table); });
  if (jit::HostCompilerAvailable()) {
    // First run includes the JIT compile; second shows steady state.
    Timed("compiled tuple-at-a-time*", n,
          [&] { return RunQ1CompiledWholeQuery(*table); });
    Q1Result comp = Timed("compiled tuple-at-a-time", n,
                          [&] { return RunQ1CompiledWholeQuery(*table); });
    if (!(comp == oracle)) std::printf("!! compiled result mismatch\n");
  }
  {
    engine::QueryOptions opts;
    opts.strategy = jit::HostCompilerAvailable()
                        ? engine::ExecutionStrategy::kAdaptiveJit
                        : engine::ExecutionStrategy::kInterpret;
    Stopwatch sw;
    engine::Query serial = MakeQ1Query(*table).ValueOrDie();
    engine::ExecReport report;
    double ms = 0;
    {
      // The query interprets while its trace compiles on the Session's
      // compiler thread; destroying the Session (untimed) finishes the
      // compile, so the 4-worker run below installs the trace at once.
      engine::Session session({.num_workers = 1});
      report = session.Run(serial.context(), opts).ValueOrDie();
      ms = sw.ElapsedMillis();
    }
    const Q1Result serial_result = Q1ResultFromQuery(serial);
    PrintResult("engine serial (DSL)", serial_result, ms, n);
    std::printf("  -> traces compiled: %llu, injected chunk runs: %llu\n",
                (unsigned long long)report.traces_compiled,
                (unsigned long long)report.injection_runs);
    if (!(serial_result == oracle)) {
      std::printf("!! adaptive result mismatch\n");
      return 1;
    }

    // Morsel-driven parallel run: row-range slices, shared trace cache,
    // aggregates merged at the barrier — bit-identical to the serial run.
    Stopwatch sw4;
    engine::Query par = MakeQ1Query(*table).ValueOrDie();
    engine::ExecReport par_report =
        engine::Session({.num_workers = 4}).Run(par.context(), opts)
            .ValueOrDie();
    double ms4 = sw4.ElapsedMillis();
    const Q1Result par_result = Q1ResultFromQuery(par);
    PrintResult("engine 4 workers (DSL)", par_result, ms4, n);
    std::printf("  -> %zu morsels on %zu workers, speedup %.2fx\n",
                par_report.morsels, par_report.workers, ms / ms4);
    if (!(par_result == oracle)) {
      std::printf("!! parallel result mismatch\n");
      return 1;
    }
  }
  if (!(vec == oracle) || !(compact == oracle)) {
    std::printf("!! vectorized result mismatch\n");
    return 1;
  }

  {
    // Multi-query concurrency: 4 Q1 clients share one session — their
    // morsels interleave fairly over 4 workers and they share one trace
    // cache. Every client must still match the oracle bit-identically.
    engine::SessionOptions so;
    so.num_workers = 4;
    engine::Session session(so);
    engine::QueryOptions qo;
    qo.strategy = jit::HostCompilerAvailable()
                      ? engine::ExecutionStrategy::kAdaptiveJit
                      : engine::ExecutionStrategy::kInterpret;
    constexpr int kClients = 4;
    std::vector<engine::Query> queries;
    for (int c = 0; c < kClients; ++c) {
      queries.push_back(MakeQ1Query(*table).ValueOrDie());
    }
    Stopwatch sw;
    std::vector<engine::QueryHandle> handles;
    for (engine::Query& q : queries) {
      handles.push_back(session.Submit(q.context(), qo));
    }
    for (engine::QueryHandle& h : handles) h.Wait().ValueOrDie();
    double ms = sw.ElapsedMillis();
    std::printf("session, %d concurrent clients %8.2f ms  %7.1f Mrows/s "
                "aggregate\n",
                kClients, ms, kClients * n / ms / 1e3);
    for (engine::Query& q : queries) {
      if (!(Q1ResultFromQuery(q) == oracle)) {
        std::printf("!! concurrent client result mismatch\n");
        return 1;
      }
    }
  }

  std::printf("\ngroup        count      sum_qty    avg_disc_price\n");
  for (int g = 0; g < 8; ++g) {
    const Q1Group& grp = oracle.groups[g];
    if (grp.count == 0) continue;
    std::printf("rf=%d ls=%d %9lld %12lld %15.2f\n", g / 2, g % 2,
                (long long)grp.count, (long long)grp.sum_qty,
                static_cast<double>(grp.sum_disc_price) / grp.count / 100.0);
  }
  std::printf("\n* first compiled run includes JIT compilation time\n");
  return 0;
}
