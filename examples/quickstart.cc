// Quickstart: the Session / QueryBuilder surface.
//
// 1. Describe a relational query with engine::QueryBuilder — filters,
//    projections and aggregates lower to the paper's DSL automatically,
//    with binding roles (input / shared / accumulator) inferred.
// 2. Submit it to a long-lived engine::Session and wait on the returned
//    QueryHandle — several clients can be in flight at once, interleaving
//    their morsels over the session's shared workers.
// 3. The classic ExecContext + parsed-DSL path (the paper's Figure 2
//    program) runs through the same session via Session::Run.
//
//   $ ./quickstart
#include <algorithm>
#include <cstdio>
#include <vector>

#include "dsl/parser.h"
#include "dsl/typecheck.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"

using namespace avm;

int main() {
  // A little "orders" table: amount in cents, a status code 0..3.
  const uint64_t n = 200'000;
  Schema schema({{"amount", TypeId::kI64}, {"status", TypeId::kI64}});
  Table orders(schema);
  {
    DataGen gen(42);
    auto amount = gen.UniformI64(n, 100, 99'999);
    auto status = gen.UniformI64(n, 0, 3);
    orders.column(0)
        .AppendValues(amount.data(), static_cast<uint32_t>(n))
        .Abort("append");
    orders.column(1)
        .AppendValues(status.data(), static_cast<uint32_t>(n))
        .Abort("append");
  }

  // 1. A typed relational query: revenue and order count per status, for
  //    orders of at least $5.
  engine::QueryBuilder qb(orders);
  qb.Filter(dsl::Var("amount") >= dsl::ConstI(500))
      .Aggregate(dsl::Var("status"), /*num_groups=*/4)
      .Sum("revenue", dsl::Var("amount"))
      .Count("orders");
  engine::Query query = qb.Build().ValueOrDie();

  // 2. The engine as a service: one session, many in-flight queries. Here
  //    a second client runs a different aggregate concurrently.
  engine::SessionOptions so;
  so.num_workers = 4;
  engine::Session session(so);
  engine::QueryOptions qo;
  qo.strategy = jit::HostCompilerAvailable()
                    ? engine::ExecutionStrategy::kAdaptiveJit
                    : engine::ExecutionStrategy::kInterpret;

  engine::QueryBuilder qb2(orders);
  qb2.Filter(dsl::Eq(dsl::Var("status"), dsl::ConstI(2)))
      .Sum("status2_cents", dsl::Var("amount"));
  engine::Query other = qb2.Build().ValueOrDie();

  engine::QueryHandle h1 = session.Submit(query.context(), qo);
  engine::QueryHandle h2 = session.Submit(other.context(), qo);
  engine::ExecReport report = h1.Wait().ValueOrDie();
  h2.Wait().ValueOrDie();

  std::printf("status   orders      revenue($)\n");
  for (size_t g = 0; g < query.num_groups(); ++g) {
    std::printf("%6zu %8lld %15.2f\n", g,
                (long long)query.aggregate("orders")[g],
                query.aggregate("revenue")[g] / 100.0);
  }
  std::printf("client 2: status-2 revenue $%.2f\n\n",
              other.aggregate("status2_cents")[0] / 100.0);

  // Verify against a scalar loop (and that both clients agree).
  {
    std::vector<int64_t> amount(n), status(n);
    orders.column(0).Read(0, n, amount.data()).Abort("read");
    orders.column(1).Read(0, n, status.data()).Abort("read");
    int64_t rev[4] = {0}, cnt[4] = {0}, s2 = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (amount[i] >= 500) {
        rev[status[i]] += amount[i];
        ++cnt[status[i]];
      }
      if (status[i] == 2) s2 += amount[i];
    }
    for (int g = 0; g < 4; ++g) {
      if (rev[g] != query.aggregate("revenue")[g] ||
          cnt[g] != query.aggregate("orders")[g]) {
        std::printf("!! aggregate mismatch in group %d\n", g);
        return 1;
      }
    }
    if (s2 != other.aggregate("status2_cents")[0]) {
      std::printf("!! client 2 mismatch\n");
      return 1;
    }
  }

  std::printf("=== engine report (client 1) ===\n%s\n\n",
              report.ToString().c_str());

  // 2b. A hash join + ORDER BY with materialized output: join orders
  //     against a customer-tier dimension, keep the cheap orders, and
  //     return the top spenders per tier weight — the build side is
  //     densified at Build() time, each morsel partial-sorts its output
  //     window, and the sorted runs merge at the session barrier.
  {
    const int64_t kCustomers = 1000;
    Schema dim_schema({{"c_key", TypeId::kI64}, {"c_tier", TypeId::kI64}});
    Table customers(dim_schema);
    {
      DataGen gen(7);
      std::vector<int64_t> key(kCustomers), tier(kCustomers);
      for (int64_t i = 0; i < kCustomers; ++i) key[i] = i;
      tier = gen.UniformI64(kCustomers, 1, 3);
      customers.column(0)
          .AppendValues(key.data(), static_cast<uint32_t>(kCustomers))
          .Abort("append");
      customers.column(1)
          .AppendValues(tier.data(), static_cast<uint32_t>(kCustomers))
          .Abort("append");
    }
    // `status` doubles as a customer key into the dimension domain here; a
    // real schema would carry an o_custkey column.
    engine::QueryBuilder qb3(orders);
    qb3.Filter(dsl::Var("amount") < dsl::ConstI(1'000))
        .Join(customers, "status", "c_key", {"c_tier"})
        .Project("weighted", dsl::Var("amount") * dsl::Var("c_tier"))
        .Output("amount")
        .OrderBy("weighted", engine::SortDir::kDescending);
    engine::Query ranked = qb3.Build().ValueOrDie();
    session.Submit(ranked.context(), qo).Wait().ValueOrDie();
    std::printf("=== join + ORDER BY (top 3 of %llu materialized rows) ===\n",
                (unsigned long long)ranked.num_result_rows());
    const auto& weighted = ranked.result_column("weighted");
    const auto& amount = ranked.result_column("amount");
    for (uint64_t i = 0; i < std::min<uint64_t>(3, ranked.num_result_rows());
         ++i) {
      std::printf("  weighted=%6lld amount=$%.2f\n",
                  (long long)weighted.As<int64_t>()[i],
                  amount.As<int64_t>()[i] / 100.0);
    }
    std::printf("\n");
  }

  // 3. The paper's Figure 2 program, parsed from text and run through
  //    Session::Run (a blocking Submit+Wait on the same session).
  constexpr const char* kFigure2 = R"(
data some_data : i64
data v : i64 writable
data w : i64 writable
mut i
mut k
i := 0
k := 0
loop
  let input = read i some_data in
  let a = map (\x -> 2*x) input in
  let t = filter (\x -> x>0) a in
  let b = condense t
  write v i a
  write w k b
  i := i + len(a)
  k := k + len(b)
  if i >= len(some_data) then
    break
)";
  dsl::Program program = dsl::ParseProgram(kFigure2).ValueOrDie();
  dsl::TypeCheck(&program).Abort("type check");
  const int64_t fig_n = 65536;
  std::vector<int64_t> data(fig_n), v(fig_n), w(fig_n);
  for (int64_t i = 0; i < fig_n; ++i) data[i] = (i % 11) - 5;
  int64_t positives = 0;
  engine::ExecContext ctx(program);
  ctx.BindInput("some_data",
                interp::DataBinding::Raw(TypeId::kI64, data.data(), fig_n))
      .BindOutput("v",
                  interp::DataBinding::Raw(TypeId::kI64, v.data(), fig_n, true))
      .BindOutput("w",
                  interp::DataBinding::Raw(TypeId::kI64, w.data(), fig_n, true))
      .set_task_hook(
          [&](const interp::Interpreter& in, const engine::Morsel&) {
            positives = in.GetScalar("k").ValueOrDie().AsI64();
            return Status::OK();
          });
  engine::ExecReport fig2 = session.Run(ctx, qo).ValueOrDie();
  std::printf("=== Figure 2 through the same session ===\n");
  std::printf("processed %lld values; %lld positive results in w\n",
              (long long)fig_n, (long long)positives);
  if (!fig2.ran_serial_reason.empty()) {
    std::printf("(ran serial: %s)\n", fig2.ran_serial_reason.c_str());
  }
  if (!jit::HostCompilerAvailable()) {
    std::printf("(no host compiler found: the VM stayed in vectorized "
                "interpretation)\n");
  }
  return 0;
}
