// Multi-query concurrency on engine::Session: N in-flight queries over M
// shared workers, differentially checked bit-identical against serial
// baselines; admission, cancellation, single-flight trace compilation
// under contention, and machine code shared only between equal sources.
#include "engine/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "dsl/builder.h"
#include "dsl/parser.h"
#include "dsl/typecheck.h"
#include "engine/query_builder.h"
#include "jit/jit_backend.h"
#include "relational/join.h"
#include "relational/q1.h"
#include "storage/datagen.h"
#include "util/rng.h"
#include "tests/wait_for_compiles.h"

namespace avm::engine {
namespace {

using relational::HashSetI64;
using relational::MakeQ1Query;
using relational::MakeSemijoinQuery;
using relational::Q1Result;
using relational::Q1ResultFromQuery;
using relational::RunQ1Scalar;

std::unique_ptr<Table> SmallLineitem(uint64_t rows = 120'000) {
  LineitemSpec spec;
  spec.num_rows = rows;
  return MakeLineitem(spec);
}

dsl::Program Checked(dsl::Program p) {
  dsl::TypeCheck(&p).Abort("type check");
  return p;
}

struct SemijoinFixture {
  std::unique_ptr<Table> probe;
  HashSetI64 f0, f1;
  uint64_t expected = 0;

  explicit SemijoinFixture(uint64_t n = 150'000) {
    Schema schema({{"k0", TypeId::kI64}, {"k1", TypeId::kI64}});
    probe = std::make_unique<Table>(schema);
    Rng rng(41);
    std::vector<int64_t> k0(n), k1(n);
    for (uint64_t i = 0; i < n; ++i) {
      k0[i] = rng.NextInRange(0, 4000);
      k1[i] = rng.NextInRange(0, 4000);
    }
    EXPECT_TRUE(probe->column(0)
                    .AppendValues(k0.data(), static_cast<uint32_t>(n))
                    .ok());
    EXPECT_TRUE(probe->column(1)
                    .AppendValues(k1.data(), static_cast<uint32_t>(n))
                    .ok());
    for (int i = 0; i < 1800; ++i) f0.Insert(rng.NextInRange(0, 4000));
    for (int i = 0; i < 300; ++i) f1.Insert(rng.NextInRange(0, 4000));
    for (uint64_t i = 0; i < n; ++i) {
      if (f0.Contains(k0[i]) && f1.Contains(k1[i])) ++expected;
    }
  }
};

// Acceptance: >= 4 concurrent queries on ONE session over a shared worker
// pool; every handle's result must be bit-identical to its serial baseline.
TEST(SessionTest, ConcurrentMixedQueriesBitIdenticalToSerial) {
  auto lineitem = SmallLineitem();
  SemijoinFixture sj;
  Q1Result oracle = RunQ1Scalar(*lineitem).ValueOrDie();

  SessionOptions so;
  so.num_workers = 4;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  // 4 Q1 clients + 2 semijoin clients, all in flight at once.
  std::vector<Query> q1s;
  std::vector<Query> sjs;
  for (int c = 0; c < 4; ++c) {
    q1s.push_back(MakeQ1Query(*lineitem).ValueOrDie());
  }
  for (int c = 0; c < 2; ++c) {
    sjs.push_back(
        MakeSemijoinQuery(*sj.probe, {"k0", "k1"}, {&sj.f0, &sj.f1})
            .ValueOrDie());
  }
  std::vector<QueryHandle> handles;
  for (Query& q : q1s) handles.push_back(session.Submit(q.context(), qo));
  for (Query& q : sjs) handles.push_back(session.Submit(q.context(), qo));

  for (QueryHandle& h : handles) {
    auto r = h.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (Query& q : q1s) {
    // Integer aggregates: concurrent morsel interleaving cannot perturb the
    // result — every client must match the scalar oracle exactly.
    EXPECT_EQ(Q1ResultFromQuery(q), oracle);
  }
  for (Query& q : sjs) {
    EXPECT_EQ(static_cast<uint64_t>(q.aggregate("survivors")[0]),
              sj.expected);
  }
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
}

// N independent sessions, each with its own workers and cache, serving
// mixed queries concurrently (clients spread across engines).
TEST(SessionTest, MultipleSessionsServeConcurrently) {
  auto lineitem = SmallLineitem(60'000);
  Q1Result oracle = RunQ1Scalar(*lineitem).ValueOrDie();
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    SessionOptions so;
    so.num_workers = 2;
    sessions.push_back(std::make_unique<Session>(so));
  }
  std::vector<Query> queries;
  std::vector<QueryHandle> handles;
  for (int s = 0; s < kSessions; ++s) {
    for (int c = 0; c < 2; ++c) {
      queries.push_back(MakeQ1Query(*lineitem).ValueOrDie());
    }
  }
  for (int s = 0; s < kSessions; ++s) {
    for (int c = 0; c < 2; ++c) {
      handles.push_back(
          sessions[s]->Submit(queries[s * 2 + c].context(), qo));
    }
  }
  for (QueryHandle& h : handles) {
    ASSERT_TRUE(h.Wait().ok());
  }
  for (Query& q : queries) {
    EXPECT_EQ(Q1ResultFromQuery(q), oracle);
  }
}

TEST(SessionTest, AdmissionQueueServesEveryQuery) {
  const int64_t n = 80'000;
  DataGen gen(5);
  auto data = gen.UniformI64(n, -50, 50);

  SessionOptions so;
  so.num_workers = 2;
  so.max_active_queries = 1;  // force later submissions through admission
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  constexpr int kQueries = 5;
  std::vector<std::vector<int64_t>> outs(kQueries,
                                         std::vector<int64_t>(n));
  std::vector<std::unique_ptr<ExecContext>> ctxs;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kQueries; ++i) {
    auto ctx = std::make_unique<ExecContext>(Checked(dsl::MakeMapPipeline(
        TypeId::kI64,
        dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(3) + dsl::ConstI(1)))));
    ctx->BindInput("src",
                   interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx->BindOutput("out", interp::DataBinding::Raw(
                               TypeId::kI64, outs[i].data(), n, true));
    handles.push_back(session.Submit(*ctx, qo));
    ctxs.push_back(std::move(ctx));
  }
  for (QueryHandle& h : handles) {
    auto r = h.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (int i = 0; i < kQueries; ++i) {
    for (int64_t row = 0; row < n; ++row) {
      ASSERT_EQ(outs[i][row], data[row] * 3 + 1)
          << "query " << i << " row " << row;
    }
  }
  EXPECT_EQ(session.stats().completed, static_cast<uint64_t>(kQueries));
}

TEST(SessionTest, CancelPendingQuery) {
  const int64_t n = 2'000'000;
  DataGen gen(9);
  auto data = gen.UniformI64(n, -50, 50);
  std::vector<std::vector<int64_t>> outs(3, std::vector<int64_t>(n));

  SessionOptions so;
  so.num_workers = 1;
  so.max_active_queries = 1;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  auto make_ctx = [&](int i) {
    auto ctx = std::make_unique<ExecContext>(Checked(dsl::MakeMapPipeline(
        TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)))));
    ctx->BindInput("src",
                   interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx->BindOutput("out", interp::DataBinding::Raw(
                               TypeId::kI64, outs[i].data(), n, true));
    return ctx;
  };
  auto a = make_ctx(0);
  auto b = make_ctx(1);
  auto c = make_ctx(2);
  QueryHandle ha = session.Submit(*a, qo);
  QueryHandle hb = session.Submit(*b, qo);
  QueryHandle hc = session.Submit(*c, qo);
  // C sits in the admission queue behind two multi-million-row scans on a
  // single worker; cancelling drops it before any of its work runs, and
  // PROMPTLY — its handle must not wait for the active queries to drain.
  hc.Cancel();
  auto rc = hc.Wait();
  ASSERT_FALSE(rc.ok());
  EXPECT_TRUE(rc.status().IsCancelled()) << rc.status().ToString();
  EXPECT_GE(session.stats().cancelled, 1u);

  ASSERT_TRUE(ha.Wait().ok());
  ASSERT_TRUE(hb.Wait().ok());
}

TEST(SessionTest, ShortQueryNotStarvedByLongRunningQuery) {
  // A long serial query must not monopolize scheduling: with spare
  // workers, a short query submitted afterwards completes while the long
  // one is still running (regression test for the pump-spawn accounting
  // that counted busy workers as available).
  // The margin between the two must swamp scheduler noise on a loaded
  // 1-CPU CI box: ~seconds of work vs ~a millisecond.
  const int64_t long_n = 16 << 20;
  const int64_t short_n = 1'000;
  DataGen gen(55);
  auto long_data = gen.UniformI64(long_n, -10, 10);
  auto short_data = gen.UniformI64(short_n, -10, 10);
  std::vector<int64_t> long_out(long_n), short_out(short_n);

  // Deep lambda so the long scan takes hundreds of milliseconds; a loop
  // that ends at a constant, not at len(src), pins it to a single serial
  // task occupying one worker.
  dsl::ExprPtr body = dsl::Var("x");
  for (int d = 0; d < 12; ++d) body = body * dsl::ConstI(3) + dsl::Var("x");
  dsl::Program long_program = dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, std::move(body)));
  // The loop's last statement is its exit, `if i >= len(src) then break`.
  long_program.stmts.back()->body.back()->expr->args[1] = dsl::ConstI(long_n);
  long_program.AssignIds();
  ASSERT_TRUE(dsl::TypeCheck(&long_program).ok());

  ExecContext long_ctx(long_program);
  long_ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64,
                                                     long_data.data(), long_n));
  long_ctx.BindOutput(
      "out", interp::DataBinding::Raw(TypeId::kI64, long_out.data(), long_n,
                                      true));
  ExecContext short_ctx(Checked(dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") + dsl::ConstI(1)))));
  short_ctx.BindInput("src", interp::DataBinding::Raw(
                                 TypeId::kI64, short_data.data(), short_n));
  short_ctx.BindOutput(
      "out", interp::DataBinding::Raw(TypeId::kI64, short_out.data(),
                                      short_n, true));

  Session session({.num_workers = 2});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;
  QueryHandle hlong = session.Submit(long_ctx, qo);
  QueryHandle hshort = session.Submit(short_ctx, qo);
  ASSERT_TRUE(hshort.Wait().ok());
  EXPECT_FALSE(hlong.done())
      << "short query was serialized behind the long one";
  ASSERT_TRUE(hlong.Wait().ok());
  for (int64_t i = 0; i < short_n; ++i) {
    ASSERT_EQ(short_out[i], short_data[i] + 1);
  }
}

TEST(SessionTest, HandleProbesAndEmptyHandle) {
  QueryHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.done());
  EXPECT_FALSE(empty.TryGetReport().has_value());

  const int64_t n = 10'000;
  DataGen gen(3);
  auto data = gen.UniformI64(n, 0, 10);
  std::vector<int64_t> out(n);
  ExecContext ctx(Checked(dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") + dsl::ConstI(7)))));
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  Session session({.num_workers = 2});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;
  QueryHandle h = session.Submit(ctx, qo);
  ASSERT_TRUE(h.valid());
  ASSERT_TRUE(h.Wait().ok());
  EXPECT_TRUE(h.done());
  auto probed = h.TryGetReport();
  ASSERT_TRUE(probed.has_value());
  EXPECT_TRUE(probed->ok());
  // Wait() again returns the same completed result.
  EXPECT_TRUE(h.Wait().ok());
}

TEST(SessionTest, SubmitErrorSurfacesThroughHandle) {
  // Output binding shorter than the input that ends the loop:
  // classification rejects it; the handle completes immediately with the
  // error instead of hanging.
  const int64_t n = 1000;
  std::vector<int64_t> data(n, 1), out(500);
  ExecContext ctx(Checked(
      dsl::MakeMapPipeline(TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x")))));
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), 500, true));
  Session session({.num_workers = 4});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;
  QueryHandle h = session.Submit(ctx, qo);
  auto r = h.Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("out"), std::string::npos);
}

// Many same-shape adaptive-JIT queries racing on a cold process: each
// query decides its situation once (its TracePlan), and the code cache's
// per-source single-flight collapses the queries' concurrent misses into
// ONE host-compiler invocation, with all other workers reusing the
// winner's machine code. No earlier test in this binary compiles the map.
TEST(SessionTest, SingleFlightTraceCompilationUnderContention) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  const int64_t n = 400'000;
  DataGen gen(21);
  auto data = gen.UniformI64(n, -100, 100);

  SessionOptions so;
  so.num_workers = 4;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 2;

  constexpr int kClients = 4;
  std::vector<std::vector<int64_t>> outs(kClients,
                                         std::vector<int64_t>(n));
  std::vector<std::unique_ptr<ExecContext>> ctxs;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kClients; ++i) {
    auto ctx = std::make_unique<ExecContext>(Checked(dsl::MakeMapPipeline(
        TypeId::kI64,
        dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(5) - dsl::ConstI(2)))));
    ctx->BindInput("src",
                   interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx->BindOutput("out", interp::DataBinding::Raw(
                               TypeId::kI64, outs[i].data(), n, true));
    handles.push_back(session.Submit(*ctx, qo));
    ctxs.push_back(std::move(ctx));
  }
  uint64_t compiled = 0, reused = 0;
  for (QueryHandle& h : handles) {
    auto r = h.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    compiled += r.value().traces_compiled + r.value().disk_cache_hits;
    reused += r.value().traces_reused;
  }
  // One program shape, one situation: exactly one compilation total across
  // all clients and all their morsels; everyone else hits the shared cache.
  EXPECT_EQ(compiled, 1u);
  EXPECT_GT(reused, 0u);
  for (int i = 0; i < kClients; ++i) {
    for (int64_t row = 0; row < n; row += 379) {
      ASSERT_EQ(outs[i][row], data[row] * 5 - 2)
          << "client " << i << " row " << row;
    }
  }
}

// Hash-join queries under cancellation + admission back-pressure: a small
// session is saturated with morsel-parallel join probes; some are cancelled
// while parked in the admission queue, some mid-probe. Every handle must
// complete (no deadlocked barrier), surviving queries must produce exact
// results, cancelled ones must be cleanly re-runnable after a reset, and
// the build-side lookup arrays must not leak (they are owned by the Query;
// this test runs under the CI ThreadSanitizer job).
TEST(SessionTest, JoinQueriesUnderCancellationAndBackPressure) {
  const uint64_t n = 400'000;
  Schema pschema({{"f_key", TypeId::kI64}, {"f_v", TypeId::kI64}});
  Table probe(pschema);
  Rng rng(77);
  std::vector<int64_t> fkey(n), fv(n);
  for (uint64_t i = 0; i < n; ++i) {
    fkey[i] = rng.NextInRange(0, 2'000);
    fv[i] = rng.NextInRange(0, 99);
  }
  ASSERT_TRUE(
      probe.column(0).AppendValues(fkey.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      probe.column(1).AppendValues(fv.data(), static_cast<uint32_t>(n)).ok());

  Schema bschema({{"d_key", TypeId::kI64}, {"d_w", TypeId::kI64}});
  Table build(bschema);
  const uint32_t bn = 1'000;  // build side covers half the probe key domain
  std::vector<int64_t> dkey(bn), dw(bn);
  for (uint32_t i = 0; i < bn; ++i) {
    dkey[i] = i * 2;
    dw[i] = rng.NextInRange(1, 9);
  }
  ASSERT_TRUE(build.column(0).AppendValues(dkey.data(), bn).ok());
  ASSERT_TRUE(build.column(1).AppendValues(dw.data(), bn).ok());

  int64_t expect = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (fkey[i] <= 2'000 - 2 && fkey[i] % 2 == 0) {
      expect += fv[i] * dw[static_cast<size_t>(fkey[i] / 2)];
    }
  }

  auto make_query = [&] {
    QueryBuilder qb(probe);
    qb.Join(build, "f_key", "d_key", {"d_w"})
        .Sum("wsum", dsl::Var("f_v") * dsl::Var("d_w"))
        .Count("matches");
    return qb.Build().ValueOrDie();
  };

  SessionOptions so;
  so.num_workers = 2;
  so.max_active_queries = 2;  // force admission back-pressure
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  constexpr int kQueries = 6;
  std::vector<Query> queries;
  for (int i = 0; i < kQueries; ++i) queries.push_back(make_query());
  {
    Session session(so);
    std::vector<QueryHandle> handles;
    for (Query& q : queries) handles.push_back(session.Submit(q.context(), qo));
    // Cancel the last three: one parked behind back-pressure (promptly
    // completes Cancelled without waiting for the active probes), two that
    // may be anywhere between admission and mid-probe.
    handles[5].Cancel();
    handles[4].Cancel();
    handles[3].Cancel();
    for (int i = 0; i < kQueries; ++i) {
      auto r = handles[i].Wait();  // every handle completes: no deadlock
      if (i < 3) {
        ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
        EXPECT_EQ(queries[i].aggregate("wsum")[0], expect) << i;
      } else if (!r.ok()) {
        EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      }
    }
    Session::Stats stats = session.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kQueries));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  }  // session drains before the queries (and their build arrays) die

  // A cancelled join query's accumulators are undefined; after a reset it
  // must run again and produce exact results.
  Session session2({.num_workers = 2});
  for (int i = 3; i < kQueries; ++i) {
    queries[i].ResetAggregates();
    auto r = session2.Submit(queries[i].context(), qo).Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(queries[i].aggregate("wsum")[0], expect) << i;
  }
}

// Join builds racing submission from another thread while cancels land:
// Build() densifies the build side on the submitting thread, so a session
// shutting down or cancelling concurrently must never touch a half-built
// query.
TEST(SessionTest, ConcurrentJoinBuildSubmitCancel) {
  const uint64_t n = 150'000;
  Schema pschema({{"f_key", TypeId::kI64}});
  Table probe(pschema);
  Rng rng(99);
  std::vector<int64_t> fkey(n);
  for (uint64_t i = 0; i < n; ++i) fkey[i] = rng.NextInRange(0, 999);
  ASSERT_TRUE(
      probe.column(0).AppendValues(fkey.data(), static_cast<uint32_t>(n)).ok());
  Schema bschema({{"d_key", TypeId::kI64}});
  Table build(bschema);
  std::vector<int64_t> dkey(500);
  for (size_t i = 0; i < dkey.size(); ++i) dkey[i] = static_cast<int64_t>(i);
  ASSERT_TRUE(build.column(0)
                  .AppendValues(dkey.data(),
                                static_cast<uint32_t>(dkey.size()))
                  .ok());
  int64_t expect = 0;
  for (uint64_t i = 0; i < n; ++i) expect += fkey[i] < 500 ? 1 : 0;

  SessionOptions so;
  so.num_workers = 2;
  so.max_active_queries = 1;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;

  constexpr int kPerThread = 4;
  std::vector<std::vector<Query>> queries(2);
  std::vector<std::vector<QueryHandle>> handles(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryBuilder qb(probe);
        qb.Join(build, "f_key", "d_key").Count("matches");
        queries[t].push_back(qb.Build().ValueOrDie());
        handles[t].push_back(session.Submit(queries[t].back().context(), qo));
      }
      handles[t].back().Cancel();  // cancel this thread's last submission
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto r = handles[t][i].Wait();
      if (r.ok()) {
        EXPECT_EQ(queries[t][i].aggregate("matches")[0], expect);
      } else {
        EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      }
    }
  }
  EXPECT_EQ(session.stats().completed, static_cast<uint64_t>(2 * kPerThread));
}

// Cost bucketing makes Q1's greedy partition (and so its generated source)
// stable run-to-run: the second run of the same query shape on one session
// must take all of its machine code from the process's code cache.
TEST(SessionTest, Q1RepeatedRunsReuseCompiledCode) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  auto lineitem = SmallLineitem(200'000);
  Q1Result oracle = RunQ1Scalar(*lineitem).ValueOrDie();

  SessionOptions so;
  so.num_workers = 1;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 4;

  Query first = MakeQ1Query(*lineitem).ValueOrDie();
  auto r1 = session.Run(first.context(), qo);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(first), oracle);
  EXPECT_GT(r1.value().traces_compiled + r1.value().traces_reused +
                r1.value().disk_cache_hits,
            0u);

  Query second = MakeQ1Query(*lineitem).ValueOrDie();
  auto r2 = session.Run(second.context(), qo);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(second), oracle);
  EXPECT_EQ(r2.value().traces_compiled, 0u)
      << "partition drifted between identical runs";
  EXPECT_GT(r2.value().traces_reused, 0u);
}

// The morsel VMs of one query share its trace plan: a 4-worker Q1 over 16
// morsels partitions once (VMs whose first optimize passes overlap wait
// for the first), verifies its one situation once, and its groups stay
// exact. A first query warms the code cache, so every morsel VM of the
// second installs the trace at its first optimize pass. A tail morsel
// shorter than the others runs the same program, so it shares the plan
// too.
TEST(SessionTest, MorselVmsOfAQueryShareItsPartitions) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  // At 4 workers: 16 morsels of 8 chunks, then 15 morsels of 8,192 rows
  // and a 3,192-row tail.
  for (uint64_t rows : {uint64_t{16 * 8 * 1024}, uint64_t{126'072}}) {
    SCOPED_TRACE(rows);
    auto lineitem = SmallLineitem(rows);
    Q1Result oracle = RunQ1Scalar(*lineitem).ValueOrDie();
    Session session({.num_workers = 4});
    QueryOptions qo;
    qo.strategy = ExecutionStrategy::kAdaptiveJit;
    Query warm = MakeQ1Query(*lineitem).ValueOrDie();
    ASSERT_TRUE(session.Run(warm.context(), qo).ok());
    EXPECT_EQ(Q1ResultFromQuery(warm), oracle);
    WaitForCompiles(session);
    Query q = MakeQ1Query(*lineitem).ValueOrDie();
    auto r = session.Run(q.context(), qo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Q1ResultFromQuery(q), oracle);
    EXPECT_EQ(r.value().morsels, 16u);
    EXPECT_EQ(r.value().partitions, 1u);
    EXPECT_EQ(r.value().verifier_checked, 1u);
    EXPECT_EQ(r.value().traces_compiled + r.value().traces_reused +
                  r.value().disk_cache_hits,
              r.value().morsels);
    EXPECT_GT(r.value().injection_runs, 0u);
  }
}

// A re-submitted Query runs the traces its context's plan decided from
// every morsel's first chunk: it partitions, verifies and compiles
// nothing, installs the trace once per morsel and runs all 64 chunks
// compiled. A second Query of the same shape has a plan of its own.
TEST(SessionTest, ResubmittedQueryRunsCompiledFromItsFirstChunk) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  // At 4 workers: 16 morsels of 4 chunks.
  auto lineitem = SmallLineitem(65'536);
  Q1Result oracle = RunQ1Scalar(*lineitem).ValueOrDie();
  Session session({.num_workers = 4});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  Query q = MakeQ1Query(*lineitem).ValueOrDie();
  ASSERT_TRUE(session.Run(q.context(), qo).ok());
  EXPECT_EQ(Q1ResultFromQuery(q), oracle);
  WaitForCompiles(session);

  q.ResetAggregates();
  auto r = session.Run(q.context(), qo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(q), oracle);
  const ExecReport& rep = r.value();
  EXPECT_EQ(rep.morsels, 16u);
  EXPECT_EQ(rep.partitions, 0u);
  EXPECT_EQ(rep.verifier_checked, 0u);
  EXPECT_EQ(rep.traces_compiled, 0u);
  EXPECT_EQ(rep.traces_reused, 16u);
  EXPECT_EQ(rep.injection_runs, 64u);
  EXPECT_EQ(rep.injection_fallbacks, 0u);
  // The install is the first transition, at chunk 0.
  EXPECT_EQ(rep.state_timeline.rfind("iter 0 ", 0), 0u) << rep.state_timeline;

  Query other = MakeQ1Query(*lineitem).ValueOrDie();
  auto r2 = session.Run(other.context(), qo);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(other), oracle);
  EXPECT_EQ(r2.value().partitions, 1u);
  EXPECT_EQ(r2.value().verifier_checked, 1u);
}

// A column whose 4,096-row blocks switch from FOR to Plain half-way: the
// first submission decides a FOR and a plain variant of the map's trace
// (morsels 0-7 see FOR blocks, 8-15 plain ones). A re-submission installs
// both before every morsel's first chunk, and each chunk runs the variant
// that fits it.
TEST(SessionTest, ResubmittedSchemeSwitchRunsCompiledOnEveryChunk) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  const uint32_t kHalf = 64 * 1024;
  Column col(TypeId::kI64, 4096);
  std::vector<int64_t> narrow = DataGen(3).UniformI64(kHalf, 1000, 1500);
  std::vector<int64_t> wide = DataGen(4).UniformI64(kHalf, -(1ll << 60),
                                                    1ll << 60);
  for (const auto& [scheme, values] :
       {std::pair{Scheme::kFor, &narrow}, std::pair{Scheme::kPlain, &wide}}) {
    for (uint32_t off = 0; off < kHalf; off += 4096) {
      ASSERT_TRUE(
          col.AppendBlockWithScheme(scheme, values->data() + off, 4096).ok());
    }
  }
  const uint64_t n = col.num_rows();
  ExecContext ctx(Checked(dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(3) -
                                            dsl::ConstI(8)))));
  std::vector<int64_t> out(n, 0);
  ctx.BindInputColumn("src", &col);
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  Session session({.num_workers = 4});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kInterpret;
  ASSERT_TRUE(session.Run(ctx, qo).ok());
  const std::vector<int64_t> want = out;

  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  auto first = session.Run(ctx, qo);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().morsels, 16u);
  EXPECT_EQ(first.value().verifier_checked, 2u);
  EXPECT_EQ(out, want);
  WaitForCompiles(session);

  std::fill(out.begin(), out.end(), 0);
  auto again = session.Run(ctx, qo);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().verifier_checked, 0u);
  EXPECT_EQ(again.value().injection_fallbacks, 0u);
  EXPECT_EQ(again.value().injection_runs, 128u);
  EXPECT_EQ(out, want);
}

// Options the plan's decisions depend on start a fresh plan: without
// compressed-execution specialization the situations differ.
TEST(SessionTest, ResubmittingUnderOtherDecisionOptionsDecidesAfresh) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  auto lineitem = SmallLineitem(65'536);
  Q1Result oracle = RunQ1Scalar(*lineitem).ValueOrDie();
  Session session({.num_workers = 4});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  Query q = MakeQ1Query(*lineitem).ValueOrDie();
  ASSERT_TRUE(session.Run(q.context(), qo).ok());
  WaitForCompiles(session);
  q.ResetAggregates();
  qo.vm.specialize_compression = false;
  auto r = session.Run(q.context(), qo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().verifier_checked, 0u);
  EXPECT_EQ(Q1ResultFromQuery(q), oracle);
}

// Binding an input starts a fresh plan: the plan's verdicts were observed
// over the old data. On the first data the filter keeps ~90% of the rows
// and fuses; on the new data it keeps ~83%, inside the band that keeps it
// out of traces. The next submission partitions again, and its traces,
// once compiled, leave the filter interpreted.
TEST(SessionTest, RebindingAnInputStartsAFreshPlan) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  const int64_t n = 32 * 1024;
  ExecContext ctx(Checked(dsl::MakeFilterPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kGt,
                                   {dsl::Var("x"), dsl::ConstI(1)})))));
  std::vector<int64_t> out(n, -1);
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  std::set<std::string> installed;
  ctx.set_task_hook([&](const interp::Interpreter& in, const Morsel&) {
    installed.clear();
    for (const auto& tr : in.injections()) installed.insert(tr.name);
    return Status::OK();
  });
  auto has_filter = [&] {
    for (const std::string& name : installed) {
      if (name.find("filter") != std::string::npos) return true;
    }
    return false;
  };
  Session session({.num_workers = 1});
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  for (int64_t hi : {int64_t{19}, int64_t{11}}) {
    SCOPED_TRACE(hi);
    std::vector<int64_t> data(n);
    Rng rng(5);
    for (auto& x : data) x = rng.NextInRange(0, hi);
    std::vector<int64_t> want;
    for (int64_t x : data) {
      if (x > 1) want.push_back(x);
    }
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    auto fresh = session.Run(ctx, qo);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(fresh.value().partitions, 1u);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()));
    WaitForCompiles(session);
    auto again = session.Run(ctx, qo);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().partitions, 0u);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()));
    EXPECT_FALSE(installed.empty());
    EXPECT_EQ(has_filter(), hi == 19);
  }
}

// A query run on a second Session of the process takes its machine code
// from the process's code cache: no compiler run, no disk load.
TEST(SessionTest, SecondSessionReusesTheFirstSessionsCode) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  const int64_t n = 64'000;
  DataGen gen(27);
  auto data = gen.UniformI64(n, -100, 100);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 2;
  std::vector<ExecReport> reports;
  for (int run = 0; run < 2; ++run) {
    std::vector<int64_t> out(n);
    // A map no other test in this binary compiles.
    ExecContext ctx(Checked(dsl::MakeMapPipeline(
        TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(11) +
                                             dsl::ConstI(4)))));
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx.BindOutput(
        "out", interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
    auto r = Session({.num_workers = 1}).Run(ctx, qo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], data[i] * 11 + 4) << "run " << run << " row " << i;
    }
    reports.push_back(r.value());
  }
  EXPECT_EQ(reports[0].traces_compiled + reports[0].disk_cache_hits, 1u);
  EXPECT_EQ(reports[1].traces_compiled, 0u);
  EXPECT_EQ(reports[1].disk_cache_hits, 0u);
  EXPECT_EQ(reports[1].compile_seconds, 0.0);
  EXPECT_GT(reports[1].traces_reused, 0u);
}

/// Output column of `program` over the i64 `inputs`
/// (bound by name, 65,536 rows each) on `session`, which must write "out".
/// Under kAdaptiveJit the program runs twice, the second time after the
/// Session's compiles finished, which must run compiled code and write
/// the same column.
std::vector<int64_t> RunFixedProgram(
    Session& session, const dsl::Program& program,
    const std::vector<std::pair<std::string, std::vector<int64_t>*>>& inputs,
    ExecutionStrategy strategy) {
  constexpr int64_t kRows = 65'536;
  QueryOptions qo;
  qo.strategy = strategy;
  qo.vm.optimize_after_iterations = 2;
  auto run = [&](ExecReport* report) {
    std::vector<int64_t> out(kRows, 0);
    ExecContext ctx(program);
    for (const auto& [name, column] : inputs) {
      ctx.BindInput(name, interp::DataBinding::Raw(TypeId::kI64,
                                                   column->data(), kRows));
    }
    ctx.BindOutput("out",
                   interp::DataBinding::Raw(TypeId::kI64, out.data(), kRows,
                                            true));
    auto r = session.Run(ctx, qo);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) *report = r.value();
    return out;
  };
  ExecReport report;
  std::vector<int64_t> out = run(&report);
  if (strategy != ExecutionStrategy::kAdaptiveJit ||
      !jit::HostCompilerAvailable()) {
    return out;
  }
  WaitForCompiles(session);
  std::vector<int64_t> compiled = run(&report);
  EXPECT_GT(report.injection_runs, 0u);
  EXPECT_EQ(compiled, out);
  return compiled;
}

/// Rows of `got` that differ from `want`.
size_t DifferingRows(const std::vector<int64_t>& got,
                     const std::vector<int64_t>& want) {
  size_t differ = 0;
  for (size_t i = 0; i < want.size(); ++i) differ += got[i] != want[i];
  return differ;
}

// Two maps whose constants differ only past the 21 characters a node label
// keeps of a lambda body: their traces look alike, but the second program
// on one Session must run its own machine code, not the first's.
TEST(SessionTest, MapConstantsDifferingPastTheLabelCutDoNotShareCode) {
  const int64_t n = 65'536;
  std::vector<int64_t> src = DataGen(29).UniformI64(n, -1000, 1000);
  Session session({.num_workers = 1});
  for (int64_t add : {int64_t{1'000'000'001}, int64_t{1'000'000'002}}) {
    dsl::Program p = dsl::MakeMapPipeline(
        TypeId::kI64,
        dsl::Lambda({"v"}, dsl::Var("v") * dsl::ConstI(1'000'000) +
                               dsl::ConstI(add)));
    ASSERT_TRUE(dsl::TypeCheck(&p).ok());
    const std::vector<int64_t> want = RunFixedProgram(
        session, p, {{"src", &src}}, ExecutionStrategy::kInterpret);
    const std::vector<int64_t> got = RunFixedProgram(
        session, p, {{"src", &src}}, ExecutionStrategy::kAdaptiveJit);
    EXPECT_EQ(DifferingRows(got, want), 0u) << "constant " << add;
  }
}

// One subtraction reading its two columns in swapped roles: no node label
// names the data array a read reads, so the traces look alike, but the
// second program on one Session must run its own machine code.
TEST(SessionTest, SwappedColumnRolesDoNotShareCode) {
  const int64_t n = 65'536;
  std::vector<int64_t> aa = DataGen(31).UniformI64(n, -1000, 1000);
  std::vector<int64_t> bb = DataGen(37).UniformI64(n, -1000, 1000);
  Session session({.num_workers = 1});
  for (const auto& [first, second] :
       {std::pair<std::string, std::string>{"aa", "bb"}, {"bb", "aa"}}) {
    auto parsed = dsl::ParseProgram(
        "data aa : i64\n"
        "data bb : i64\n"
        "data out : i64 writable\n"
        "mut i\n"
        "i := 0\n"
        "loop\n"
        "  let x = read i " + first + " in\n"
        "  let y = read i " + second + " in\n"
        "  let d = map (\\p q -> p - q) x y in\n"
        "  write out i d\n"
        "  i := i + (len x)\n"
        "  if i >= 65536 then\n"
        "    break\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    dsl::Program p = std::move(parsed).value();
    ASSERT_TRUE(dsl::TypeCheck(&p).ok());
    const std::vector<int64_t> want =
        RunFixedProgram(session, p, {{"aa", &aa}, {"bb", &bb}},
                        ExecutionStrategy::kInterpret);
    const std::vector<int64_t> got =
        RunFixedProgram(session, p, {{"aa", &aa}, {"bb", &bb}},
                        ExecutionStrategy::kAdaptiveJit);
    EXPECT_EQ(DifferingRows(got, want), 0u) << "x reads " << first;
  }
}

TEST(SessionTest, ConcurrentOrderByFinalizesMergeInPartsOnEveryWorker) {
  // Four clients each submit an ORDER BY query big enough for four merge
  // parts to one 4-worker Session at the same time, for three rounds: the
  // queries finish together, so several workers finalize at once and each
  // runs its merge parts through the pool it is a thread of. Every result
  // must be bit-identical to a 1-worker run.
  constexpr uint64_t kRows = 80'000;
  constexpr size_t kClients = 4;
  Table t(Schema({{"k", TypeId::kI64}, {"v", TypeId::kI64}}));
  Rng rng(23);
  std::vector<int64_t> k(kRows), v(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    k[i] = rng.NextInRange(0, 4999);
    v[i] = static_cast<int64_t>(i);
  }
  ASSERT_TRUE(
      t.column(0).AppendValues(k.data(), static_cast<uint32_t>(kRows)).ok());
  ASSERT_TRUE(
      t.column(1).AppendValues(v.data(), static_cast<uint32_t>(kRows)).ok());
  auto build_query = [&] {
    QueryBuilder qb(t);
    qb.Output("v").OrderBy("k", SortDir::kAscending);
    return qb.Build().ValueOrDie();
  };
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  Query golden = build_query();
  ASSERT_TRUE(Session({.num_workers = 1}).Run(golden.context(), opts).ok());
  ASSERT_EQ(golden.num_result_rows(), kRows);

  Session session({.num_workers = 4});
  std::vector<Query> queries;
  for (size_t c = 0; c < kClients; ++c) queries.push_back(build_query());
  for (int round = 0; round < 3; ++round) {
    std::vector<std::optional<Result<ExecReport>>> reports(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        reports[c] = session.Submit(queries[c].context(), opts).Wait();
      });
    }
    for (std::thread& th : clients) th.join();
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(reports[c]->ok()) << reports[c]->status().ToString();
      EXPECT_GT(reports[c]->value().merge_parts, 1u) << "client " << c;
      EXPECT_TRUE(queries[c].result_column("k").data ==
                  golden.result_column("k").data)
          << "round " << round << " client " << c;
      EXPECT_TRUE(queries[c].result_column("v").data ==
                  golden.result_column("v").data)
          << "round " << round << " client " << c;
    }
  }
}

}  // namespace
}  // namespace avm::engine
