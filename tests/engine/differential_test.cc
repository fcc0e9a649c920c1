// Differential query testing: a seeded random plan generator over
// Scan/Filter/Project/Join/SemiJoin/Aggregate/OrderBy runs every plan under
// kInterpret (serial), kAdaptiveJit (serial), and a 4-worker Session, and
// asserts identical results — BIT-identical for integer aggregates and all
// materialized rows; tight-tolerance for f64 SUM/AVG accumulators, whose
// addition order legitimately differs across morsel merges.
//
// Joins rotate through three build-side families: the near-dense original,
// a duplicate-heavy table (avg fan-out ~4, exercises the many-to-many CSR
// hash path and fan-out row windows), and a sparse table whose keys are
// negative / huge (> 2^24) probed via the probe's own sparse key column.
//
// Every failure message leads with the plan seed and the plan description:
//   AVM_DIFF_SEED=<seed> ./engine_differential_test   reruns just that plan.
//   AVM_DIFF_PLANS=<n>                                overrides the count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verify_program.h"
#include "dsl/typecheck.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace avm::engine {
namespace {

using dsl::Call;
using dsl::Cast;
using dsl::ConstI;
using dsl::Eq;
using dsl::ExprPtr;
using dsl::Ne;
using dsl::Var;

constexpr uint64_t kProbeRows = 6'000;
constexpr int64_t kKeyDomain = 600;  // probe keys in [0, 600]
constexpr int64_t kBuildKeys = 500;  // build side covers [0, 500)

/// Join keys the dense fast path cannot represent: negative, sparse, and
/// far beyond the ~16M dense-domain cap. Shared by the probe's k2 column
/// and the sparse build table so roughly half the probes match.
const std::vector<int64_t>& SparseKeyDomain() {
  static const std::vector<int64_t> domain = {
      -(int64_t{1} << 41), -123'456'789LL, -600, -17, -2, -1, 0, 1,
      5,  599, 4'000'000LL, (int64_t{1} << 24) + 3, (int64_t{1} << 33)};
  return domain;
}

/// Shared fixture tables: a probe side (i64 key/a/b, a sparse/negative key
/// k2, an f64 w) and three dimension sides sharing one schema — the
/// near-dense original (dense keys + a small duplicated tail), a
/// duplicate-heavy one (every key 1..7 times, avg fan-out ~4), and a
/// sparse one keyed on SparseKeyDomain() values.
struct Tables {
  std::unique_ptr<Table> probe;
  std::unique_ptr<Table> build;
  std::unique_ptr<Table> build_dup;
  std::unique_ptr<Table> build_sparse;

  void MakeBuild(std::unique_ptr<Table>* out, const std::vector<int64_t>& dk,
                 Rng& rng) {
    Schema bs({{"d_key", TypeId::kI64},
               {"d_val", TypeId::kI64},
               {"d_rate", TypeId::kF64}});
    *out = std::make_unique<Table>(bs);
    const auto n = static_cast<uint32_t>(dk.size());
    std::vector<int64_t> dv(n);
    std::vector<double> dr(n);
    for (uint32_t i = 0; i < n; ++i) {
      dv[i] = rng.NextInRange(1, 400);
      dr[i] = static_cast<double>(rng.NextInRange(1, 999)) / 32.0;
    }
    EXPECT_TRUE((*out)->column(0).AppendValues(dk.data(), n).ok());
    EXPECT_TRUE((*out)->column(1).AppendValues(dv.data(), n).ok());
    EXPECT_TRUE((*out)->column(2).AppendValues(dr.data(), n).ok());
  }

  Tables() {
    Schema ps({{"k", TypeId::kI64},
               {"a", TypeId::kI64},
               {"b", TypeId::kI64},
               {"w", TypeId::kF64},
               {"k2", TypeId::kI64}});
    probe = std::make_unique<Table>(ps);
    Rng rng(2024);
    std::vector<int64_t> k(kProbeRows), a(kProbeRows), b(kProbeRows);
    std::vector<double> w(kProbeRows);
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      k[i] = rng.NextInRange(0, kKeyDomain);
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
      w[i] = static_cast<double>(rng.NextInRange(-500, 500)) / 16.0;
    }
    EXPECT_TRUE(probe->column(0).AppendValues(k.data(), kProbeRows).ok());
    EXPECT_TRUE(probe->column(1).AppendValues(a.data(), kProbeRows).ok());
    EXPECT_TRUE(probe->column(2).AppendValues(b.data(), kProbeRows).ok());
    EXPECT_TRUE(probe->column(3).AppendValues(w.data(), kProbeRows).ok());

    std::vector<int64_t> dk(static_cast<size_t>(kBuildKeys) + 50);
    for (size_t i = 0; i < dk.size(); ++i) {
      dk[i] = i < static_cast<size_t>(kBuildKeys)
                  ? static_cast<int64_t>(i)
                  : rng.NextInRange(0, kBuildKeys - 1);  // 50 duplicates
    }
    MakeBuild(&build, dk, rng);

    // The new columns/tables draw from a second stream so the original
    // probe/build contents (and thus historical seed behavior) are stable.
    Rng rng2(2025);
    const std::vector<int64_t>& domain = SparseKeyDomain();
    const auto dmax = static_cast<int64_t>(domain.size()) - 1;
    std::vector<int64_t> k2(kProbeRows);
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      // ~60% of probes draw from the sparse domain; the rest miss.
      k2[i] = rng2.NextInRange(0, 99) < 60
                  ? domain[static_cast<size_t>(rng2.NextInRange(0, dmax))]
                  : rng2.NextInRange(1'000'000, 2'000'000);
    }
    EXPECT_TRUE(probe->column(4).AppendValues(k2.data(), kProbeRows).ok());

    std::vector<int64_t> dup_dk;
    for (int64_t key = 0; key <= kKeyDomain; ++key) {
      const int64_t copies = rng2.NextInRange(1, 7);  // avg fan-out 4
      for (int64_t c = 0; c < copies; ++c) dup_dk.push_back(key);
    }
    MakeBuild(&build_dup, dup_dk, rng2);

    std::vector<int64_t> sparse_dk;
    for (int64_t key : domain) {
      const int64_t copies = rng2.NextInRange(1, 3);
      for (int64_t c = 0; c < copies; ++c) sparse_dk.push_back(key);
    }
    for (int64_t i = 0; i < 8; ++i) {  // never probed
      sparse_dk.push_back(3'000'000 + i);
    }
    MakeBuild(&build_sparse, sparse_dk, rng2);
  }
};

/// What the generator decided, so the comparator knows each aggregate's
/// representation and failures reproduce readably.
struct PlanInfo {
  std::string desc;
  bool row_mode = false;
  std::vector<std::pair<std::string, bool>> aggs;  ///< name, is_f64
};

/// Deterministically generates the plan for `seed` onto a fresh builder.
/// Called once per execution config with the same seed, so all three
/// queries are the same plan.
Result<Query> GeneratePlan(uint64_t seed, const Tables& t, PlanInfo* info) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  QueryBuilder qb(*t.probe);
  info->desc.clear();
  info->aggs.clear();

  // Name pools. `fresh` names compose in multi-input expressions (columns
  // always do; join payloads re-gather lazily; projections only until the
  // next selection change). `stale` projections stay usable as single-ref
  // aggregates.
  std::vector<std::string> i64_fresh = {"k", "a", "b"};
  std::vector<std::string> f64_names = {"w"};
  std::vector<std::string> stale;
  int proj_n = 0;
  bool joined = false;

  auto pick = [&](const std::vector<std::string>& pool) {
    return pool[static_cast<size_t>(
        rng.NextInRange(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  auto chance = [&](int pct) { return rng.NextInRange(0, 99) < pct; };

  // Random i64 scalar expression over fresh names; the leftmost leaf is
  // always a name so the expression references at least one column.
  std::function<ExprPtr(int, bool)> rand_expr = [&](int depth,
                                                    bool must_ref) -> ExprPtr {
    if (depth == 0 || (!must_ref && chance(40))) {
      if (must_ref || chance(70)) return Var(pick(i64_fresh));
      return ConstI(rng.NextInRange(1, 100));
    }
    ExprPtr l = rand_expr(depth - 1, must_ref);
    ExprPtr r = rand_expr(depth - 1, false);
    switch (rng.NextInRange(0, 3)) {
      case 0: return l + r;
      case 1: return l - r;
      case 2: return l * r;
      default: return l / r;  // div by zero is a defined 0 in this engine
    }
  };
  auto rand_pred = [&]() -> ExprPtr {
    ExprPtr l = rand_expr(1, true);
    ExprPtr r = chance(60) ? ConstI(rng.NextInRange(0, 900))
                           : rand_expr(1, true);
    switch (rng.NextInRange(0, 5)) {
      case 0: return l < r;
      case 1: return l <= r;
      case 2: return l > r;
      case 3: return l >= r;
      case 4: return Eq(l, r);
      default: return Ne(l, r);
    }
  };
  auto invalidate_projections = [&] {
    // A selection change makes earlier projections single-ref-only.
    for (auto it = i64_fresh.begin(); it != i64_fresh.end();) {
      if (it->rfind("p", 0) == 0) {
        stale.push_back(*it);
        it = i64_fresh.erase(it);
      } else {
        ++it;
      }
    }
  };

  const int steps = static_cast<int>(rng.NextInRange(0, 4));
  for (int s = 0; s < steps; ++s) {
    switch (rng.NextInRange(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Filter
        info->desc += "Filter ";
        qb.Filter(rand_pred());
        invalidate_projections();
        break;
      }
      case 4:
      case 5:
      case 6: {  // Project
        const std::string name = StrFormat("p%d", proj_n++);
        info->desc += "Project(" + name + ") ";
        qb.Project(name, rand_expr(2, true));
        i64_fresh.push_back(name);
        break;
      }
      case 7: {  // SemiJoin on the bounded key column
        info->desc += "SemiJoin ";
        std::vector<int64_t> membership(kKeyDomain + 1);
        for (int64_t& m : membership) m = chance(55) ? 1 : 0;
        qb.SemiJoin("k", std::move(membership));
        invalidate_projections();
        break;
      }
      default: {  // Join (at most one; payload names must stay fresh)
        if (joined) {
          info->desc += "Filter ";
          qb.Filter(rand_pred());
          invalidate_projections();
          break;
        }
        joined = true;
        // The build-side family comes from a side stream (seeded from the
        // plan seed, not the main rng) so adding families did not shift
        // the step sequence of historical/pinned seeds.
        Rng jrng(seed * 0xD1B54A32D192ED03ull + 2);
        switch (jrng.NextInRange(0, 2)) {
          case 0:
            info->desc += "Join ";
            qb.Join(*t.build, "k", "d_key", {"d_val", "d_rate"});
            break;
          case 1:  // duplicate-heavy: many-to-many fan-out (avg ~4)
            info->desc += "JoinDup ";
            qb.Join(*t.build_dup, "k", "d_key", {"d_val", "d_rate"});
            break;
          default:  // sparse / negative / >2^24 keys via the k2 column
            info->desc += "JoinSparse ";
            qb.Join(*t.build_sparse, "k2", "d_key", {"d_val", "d_rate"});
            break;
        }
        invalidate_projections();
        i64_fresh.push_back("d_val");
        f64_names.push_back("d_rate");
        break;
      }
    }
  }

  info->row_mode = chance(50);
  if (info->row_mode) {
    std::vector<std::string> all = i64_fresh;
    all.insert(all.end(), f64_names.begin(), f64_names.end());
    const int outs = static_cast<int>(rng.NextInRange(1, 3));
    std::vector<std::string> chosen;
    for (int o = 0; o < outs; ++o) {
      std::string c = pick(all);
      if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) {
        chosen.push_back(c);
        info->desc += "Output(" + c + ") ";
        qb.Output(c);
      }
    }
    if (chance(70)) {
      const std::string key = chance(30) ? pick(f64_names) : pick(all);
      const bool desc = chance(50);
      info->desc += StrFormat("OrderBy(%s,%s)", key.c_str(),
                              desc ? "desc" : "asc");
      qb.OrderBy(key, desc ? SortDir::kDescending : SortDir::kAscending);
    }
  } else {
    size_t groups = 1;
    if (chance(60)) {
      groups = static_cast<size_t>(rng.NextInRange(2, 8));
      // ((expr % G) + G) % G keeps any integer expression in-range.
      ExprPtr g = rand_expr(1, true);
      ExprPtr G = ConstI(static_cast<int64_t>(groups));
      g = Call(dsl::ScalarOp::kMod,
               {Call(dsl::ScalarOp::kMod, {std::move(g), G}) + G, G});
      info->desc += StrFormat("Aggregate(%zu) ", groups);
      qb.Aggregate(std::move(g), groups);
    }
    const int naggs = static_cast<int>(rng.NextInRange(1, 3));
    std::vector<std::string> i64_aggs;
    for (int a = 0; a < naggs; ++a) {
      const std::string name = StrFormat("agg%d", a);
      switch (rng.NextInRange(0, 3)) {
        case 0:
          info->desc += "Count ";
          qb.Count(name);
          info->aggs.emplace_back(name, false);
          i64_aggs.push_back(name);
          break;
        case 1: {
          // Single-ref sums may also draw from stale projections.
          if (!stale.empty() && chance(30)) {
            info->desc += "Sum(stale) ";
            qb.Sum(name, Var(pick(stale)));
          } else {
            info->desc += "Sum ";
            qb.Sum(name, rand_expr(2, true));
          }
          info->aggs.emplace_back(name, false);
          i64_aggs.push_back(name);
          break;
        }
        case 2:
          info->desc += "SumF64 ";
          qb.SumF64(name, chance(50)
                              ? Var(pick(f64_names))
                              : Cast(TypeId::kF64, rand_expr(1, true)));
          info->aggs.emplace_back(name, true);
          break;
        default:
          info->desc += "AvgF64 ";
          qb.AvgF64(name, Var(pick(f64_names)));
          info->aggs.emplace_back(name, true);
          break;
      }
    }
    if (chance(40)) {
      // f64 sort keys would make tie order depend on accumulation order;
      // order aggregate rows by "group" or an integer aggregate only.
      std::string key = "group";
      if (!i64_aggs.empty() && chance(60)) key = pick(i64_aggs);
      const bool desc = chance(50);
      info->desc += StrFormat("OrderBy(%s,%s)", key.c_str(),
                              desc ? "desc" : "asc");
      qb.OrderBy(key, desc ? SortDir::kDescending : SortDir::kAscending);
    }
  }
  return qb.Build();
}

void CompareQueries(Query& base, Query& other, const PlanInfo& info,
                    const std::string& label) {
  for (const auto& [name, is_f64] : info.aggs) {
    if (is_f64) {
      const auto& bv = base.aggregate_f64(name);
      const auto& ov = other.aggregate_f64(name);
      ASSERT_EQ(bv.size(), ov.size()) << label;
      for (size_t g = 0; g < bv.size(); ++g) {
        ASSERT_NEAR(ov[g], bv[g], std::abs(bv[g]) * 1e-9 + 1e-9)
            << label << " f64 aggregate " << name << " group " << g;
      }
    } else {
      ASSERT_EQ(other.aggregate(name), base.aggregate(name))
          << label << " aggregate " << name;
    }
  }
  ASSERT_EQ(other.num_result_rows(), base.num_result_rows()) << label;
  const auto& bcols = base.result_columns();
  const auto& ocols = other.result_columns();
  ASSERT_EQ(bcols.size(), ocols.size()) << label;
  for (size_t c = 0; c < bcols.size(); ++c) {
    ASSERT_EQ(ocols[c].name, bcols[c].name) << label;
    ASSERT_EQ(ocols[c].type, bcols[c].type) << label;
    if (IsFloatType(bcols[c].type) && !info.row_mode) {
      // Ordered-aggregate rows: f64 columns carry accumulator values.
      const auto* bd = bcols[c].As<double>();
      const auto* od = ocols[c].As<double>();
      for (uint64_t r = 0; r < base.num_result_rows(); ++r) {
        ASSERT_NEAR(od[r], bd[r], std::abs(bd[r]) * 1e-9 + 1e-9)
            << label << " column " << bcols[c].name << " row " << r;
      }
    } else {
      // Row outputs are per-row computed values: BIT-identical, f64
      // included.
      ASSERT_EQ(ocols[c].data, bcols[c].data)
          << label << " column " << bcols[c].name;
    }
  }
}

/// Smallest memory budget EVERY generated plan can run under: one chunk
/// (1024 rows) of the widest possible scratch window — up to 4 output
/// columns (3 chosen + an appended OrderBy key) x 8 bytes x the
/// duplicate-heavy build side's maximum fan-out of 7. Budgets below a
/// plan's single-morsel window are a deterministic kResourceExhausted
/// (see MemoryBudgetTest), which is not what the differential family
/// exercises.
constexpr uint64_t kViableBudget = 1024ull * 4 * 8 * 7;

/// The decline contract of the single JIT gate: a run either compiled every
/// trace it considered, or reports a verifier decline naming its rule id
/// ("Not implemented: [rule-id] ..."). An Internal error would be codegen
/// failing on a trace the gate accepted.
bool DeclineNamesVerifierRule(const std::string& declined) {
  const std::string prefix = Status::NotImplemented("[").ToString();
  return declined.empty() ||
         (declined.rfind(prefix, 0) == 0 &&
          declined.find("] ", prefix.size()) != std::string::npos);
}

/// Runs one seeded plan under all three configs, plus the out-of-core
/// family (the same plan under a side-stream-chosen memory budget), and
/// compares. Increments *built / *skipped accordingly; accumulates spilled
/// bytes into *spilled. Used by the random sweep and by the pinned
/// regression seeds.
void RunSeed(uint64_t seed, Tables& t, Session& parallel_session, int* built,
             int* skipped, uint64_t* spilled) {
  const std::string repro =
      StrFormat("[plan seed %llu: rerun with AVM_DIFF_SEED=%llu] ",
                (unsigned long long)seed, (unsigned long long)seed);

  PlanInfo info;
  Result<Query> base_q = GeneratePlan(seed, t, &info);
  const bool verbose = std::getenv("AVM_DIFF_VERBOSE") != nullptr;
  if (verbose) SetLogLevel(LogLevel::kDebug);
  if (verbose) {
    std::fprintf(stderr, "plan %llu: %s -> %s\n", (unsigned long long)seed,
                 info.desc.c_str(),
                 base_q.ok() ? "built" : base_q.status().ToString().c_str());
  }
  if (!base_q.ok()) {
    // A generated plan the builder rejects (e.g. residual selection
    // conflicts) must be rejected IDENTICALLY on every config.
    PlanInfo i2, i3;
    Result<Query> q2 = GeneratePlan(seed, t, &i2);
    Result<Query> q3 = GeneratePlan(seed, t, &i3);
    ASSERT_FALSE(q2.ok()) << repro << info.desc;
    ASSERT_FALSE(q3.ok()) << repro << info.desc;
    ASSERT_EQ(base_q.status().ToString(), q2.status().ToString())
        << repro << info.desc;
    ++*skipped;
    return;
  }
  ++*built;
  Query base = std::move(base_q.value());

  // Every generated plan's lowered program must be verifier-clean
  // (docs/VERIFIER.md level 1). Build() already enforces this — the direct
  // check keeps the assertion visible even if the facade wiring regresses.
  {
    Result<dsl::Program> prog = base.MakeProgram(4096);
    ASSERT_TRUE(prog.ok()) << repro << info.desc;
    dsl::Program p = std::move(prog).ValueOrDie();
    ASSERT_TRUE(dsl::TypeCheck(&p).ok()) << repro << info.desc;
    const analysis::VerifyResult vr = analysis::VerifyProgram(p);
    ASSERT_TRUE(vr.clean())
        << repro << info.desc << " program verifier: " << vr.ToString();
  }

  // Baseline: serial vectorized interpretation.
  {
    EngineOptions eo;
    eo.strategy = ExecutionStrategy::kInterpret;
    eo.num_workers = 1;
    auto r = ExecEngine::Execute(base.context(), eo);
    ASSERT_TRUE(r.ok()) << repro << info.desc << ": " << r.status().ToString();
    if (verbose) std::fprintf(stderr, "  interp-serial ok\n");
  }

  // Serial adaptive JIT (falls back to interpretation without a host
  // compiler — the comparison holds either way).
  {
    PlanInfo i2;
    Query q = GeneratePlan(seed, t, &i2).ValueOrDie();
    EngineOptions eo;
    eo.strategy = ExecutionStrategy::kAdaptiveJit;
    eo.num_workers = 1;
    eo.vm.optimize_after_iterations = 2;
    auto r = ExecEngine::Execute(q.context(), eo);
    ASSERT_TRUE(r.ok()) << repro << info.desc << ": " << r.status().ToString();
    // Declines come from the JIT gate only; codegen never fails on a trace
    // the gate accepted (docs/VERIFIER.md).
    ASSERT_TRUE(DeclineNamesVerifierRule(r.ValueOrDie().jit_declined))
        << repro << info.desc
        << " jit_declined: " << r.ValueOrDie().jit_declined;
    CompareQueries(base, q, info, repro + info.desc + " [jit-serial]");
    if (verbose) std::fprintf(stderr, "  jit-serial ok\n");
  }

  // 4-worker session, morsel-parallel adaptive JIT.
  {
    PlanInfo i3;
    Query q = GeneratePlan(seed, t, &i3).ValueOrDie();
    QueryOptions qo;
    qo.strategy = ExecutionStrategy::kAdaptiveJit;
    qo.vm.optimize_after_iterations = 2;
    auto r = parallel_session.Submit(q.context(), qo).Wait();
    ASSERT_TRUE(r.ok()) << repro << info.desc << ": " << r.status().ToString();
    ASSERT_TRUE(DeclineNamesVerifierRule(r.ValueOrDie().jit_declined))
        << repro << info.desc
        << " jit_declined: " << r.ValueOrDie().jit_declined;
    CompareQueries(base, q, info, repro + info.desc + " [session-4w]");
  }

  // Out-of-core family: the same plan under a memory budget, serial and on
  // the 4-worker session. The budget tier comes from a SIDE stream (like
  // the join-family choice above) so historical/pinned seeds keep their
  // plans; it rotates through just-viable (many small spilled runs for
  // plans with large windows), mid (one/few runs), and huge (fits — zero
  // runs). Row results must stay BIT-identical either way.
  {
    Rng srng(seed * 0x9E3779B97F4A7C15ull + 3);
    const uint64_t budgets[] = {kViableBudget, 3 * kViableBudget,
                                64ull << 20};
    const uint64_t budget =
        budgets[static_cast<size_t>(srng.NextInRange(0, 2))];
    const std::string blabel =
        StrFormat(" budget=%llu", (unsigned long long)budget);
    {
      PlanInfo i4;
      Query q = GeneratePlan(seed, t, &i4).ValueOrDie();
      EngineOptions eo;
      eo.strategy = ExecutionStrategy::kInterpret;
      eo.num_workers = 1;
      eo.memory_budget = budget;
      auto r = ExecEngine::Execute(q.context(), eo);
      ASSERT_TRUE(r.ok()) << repro << info.desc << blabel << ": "
                          << r.status().ToString();
      *spilled += r.ValueOrDie().bytes_spilled;
      CompareQueries(base, q, info,
                     repro + info.desc + " [spill-serial" + blabel + "]");
      if (verbose) {
        std::fprintf(stderr, "  spill-serial ok (%llu bytes spilled)\n",
                     (unsigned long long)r.ValueOrDie().bytes_spilled);
      }
    }
    {
      PlanInfo i5;
      Query q = GeneratePlan(seed, t, &i5).ValueOrDie();
      QueryOptions qo;
      qo.strategy = ExecutionStrategy::kAdaptiveJit;
      qo.vm.optimize_after_iterations = 2;
      qo.memory_budget = budget;
      auto r = parallel_session.Submit(q.context(), qo).Wait();
      ASSERT_TRUE(r.ok()) << repro << info.desc << blabel << ": "
                          << r.status().ToString();
      *spilled += r.ValueOrDie().bytes_spilled;
      CompareQueries(base, q, info,
                     repro + info.desc + " [spill-session-4w" + blabel + "]");
    }
  }
}

TEST(DifferentialTest, RandomPlansAgreeAcrossStrategiesAndWorkers) {
  Tables t;

  uint64_t first_seed = 1;
  int plans = 200;
  if (const char* s = std::getenv("AVM_DIFF_SEED")) {
    first_seed = std::strtoull(s, nullptr, 10);
    plans = 1;
  }
  if (const char* p = std::getenv("AVM_DIFF_PLANS")) {
    plans = std::atoi(p);
  }

  // One long-lived 4-worker session serves every parallel run — plans
  // interleave with each other's trace-cache entries like production
  // clients would.
  SessionOptions so;
  so.num_workers = 4;
  Session parallel_session(so);

  int built = 0, skipped = 0;
  uint64_t spilled = 0;
  for (int p = 0; p < plans; ++p) {
    RunSeed(first_seed + static_cast<uint64_t>(p), t, parallel_session,
            &built, &skipped, &spilled);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The generator is tuned to produce mostly-buildable plans; if that
  // drifts, the differential coverage silently evaporates — fail loudly
  // instead.
  EXPECT_GE(built, plans * 3 / 4)
      << "generator built only " << built << "/" << plans << " plans";
  // Same guard for the out-of-core family: across a full sweep some plans
  // must actually have taken the spill path, or the budget knob has
  // silently stopped biting.
  if (plans >= 50) {
    EXPECT_GT(spilled, 0u) << "no plan in the sweep spilled a single byte";
  }
  std::printf(
      "differential: %d plans built, %d rejected identically, "
      "%llu bytes spilled\n",
      built, skipped, (unsigned long long)spilled);
}

// Pinned seeds for the shape families the JIT used to decline (and, before
// the declines, MIScompile): these plans compose the stale-cursor shape
// (Filter → Output/OrderBy: a condensing write whose let-bound count
// advances the cursor) and the selection-republish shape (post-filter
// projections/joins whose chunk inputs carry a selection, gathered join
// payloads under that selection). The random sweep above rotates seeds
// only when its generator changes; these never rotate, so the
// selection-aware trace ABI keeps being exercised even if the sweep's
// distribution drifts.
TEST(DifferentialTest, PinnedSeedsForPreviouslyDeclinedShapes) {
  Tables t;
  SessionOptions so;
  so.num_workers = 4;
  Session parallel_session(so);

  // 6:  Filter Project JoinSparse Filter Output OrderBy
  //     (selection-composed join probe over negative/huge keys + payload
  //     re-gather + condensing output cursor)
  // 9:  SemiJoin JoinDup Project Filter Aggregate Sum/Count/SumF64 OrderBy
  //     (selection-carrying scatter aggregation behind two probes, with
  //     duplicate fan-out)
  // 12: Filter Output OrderBy                      (minimal stale-cursor)
  // 20: Filter SemiJoin Join Project Output×3 OrderBy (everything at once)
  // 24: Project JoinDup SemiJoin Filter Output OrderBy (duplicate
  //     fan-out feeding a post-join selection and an ordered, condensing
  //     row materialization — the many-to-many pair-domain shape)
  int built = 0, skipped = 0;
  uint64_t spilled = 0;
  for (uint64_t seed : {6ull, 9ull, 12ull, 20ull, 24ull}) {
    RunSeed(seed, t, parallel_session, &built, &skipped, &spilled);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // All five seeds must BUILD — a generator change that invalidates one
  // must re-pin an equivalent plan, not silently skip the family.
  EXPECT_EQ(built, 5) << "pinned differential seeds no longer build";
}

// Pinned out-of-core seed: a duplicate-fan-out (many-to-many) join feeding
// an ordered row materialization whose windows cannot fit the just-viable
// budget — the canonical spill shape (docs/SPILL.md). Unlike the sweep,
// this seed's spilling is asserted, not sampled: it must write runs to
// disk and still match the unbudgeted baseline byte for byte, serial and
// on the 4-worker session. Pinned independently so the historical seeds
// above keep their plans.
TEST(DifferentialTest, PinnedSpilledManyToManyJoinOrderBy) {
  Tables t;
  // Seed 57: Project(p0) Project(p1) JoinDup Project(p2)
  //          Output(b) Output(d_rate) Output(p2) OrderBy(w,desc)
  // — 4 output columns (OrderBy key appended) x dup fan-out, so the
  // windows are ~32B x fan_out per input row and the just-viable budget
  // always trips.
  constexpr uint64_t kSeed = 57;
  PlanInfo info;
  Query base = GeneratePlan(kSeed, t, &info).ValueOrDie();
  ASSERT_TRUE(info.row_mode) << info.desc;
  ASSERT_NE(info.desc.find("JoinDup"), std::string::npos) << info.desc;
  ASSERT_NE(info.desc.find("OrderBy"), std::string::npos) << info.desc;
  {
    EngineOptions eo;
    eo.strategy = ExecutionStrategy::kInterpret;
    eo.num_workers = 1;
    // Explicitly huge budget (not 0, which would fall back to a CI-forced
    // AVM_MEMORY_BUDGET): the baseline must stay resident even in the
    // spill-stress lane.
    eo.memory_budget = uint64_t{1} << 40;
    auto r = ExecEngine::Execute(base.context(), eo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.ValueOrDie().bytes_spilled, 0u);
    ASSERT_GT(base.num_result_rows(), 0u) << info.desc;
  }

  {
    PlanInfo i2;
    Query q = GeneratePlan(kSeed, t, &i2).ValueOrDie();
    EngineOptions eo;
    eo.strategy = ExecutionStrategy::kInterpret;
    eo.num_workers = 1;
    eo.memory_budget = kViableBudget;
    auto r = ExecEngine::Execute(q.context(), eo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r.ValueOrDie().bytes_spilled, 0u) << info.desc;
    EXPECT_GE(r.ValueOrDie().spill_runs, 2u) << info.desc;
    CompareQueries(base, q, info, info.desc + " [pinned-spill-serial]");
  }
  {
    SessionOptions so;
    so.num_workers = 4;
    Session parallel_session(so);
    PlanInfo i3;
    Query q = GeneratePlan(kSeed, t, &i3).ValueOrDie();
    QueryOptions qo;
    qo.strategy = ExecutionStrategy::kAdaptiveJit;
    qo.vm.optimize_after_iterations = 2;
    qo.memory_budget = kViableBudget;
    auto r = parallel_session.Submit(q.context(), qo).Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r.ValueOrDie().bytes_spilled, 0u) << info.desc;
    CompareQueries(base, q, info, info.desc + " [pinned-spill-session-4w]");
  }
}

}  // namespace
}  // namespace avm::engine
