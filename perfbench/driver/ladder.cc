// The per-layer ladder of the traced run. Each rung adds one layer on top of
// the previous one and is timed from outside through public calls only, so
// the cost of a layer is a subtraction between rungs:
//
//   relational floors  hand-written Q1 / join+sort (no engine)
//   interp             1-worker Session, kInterpret
//   jit                1-worker Session, kAdaptiveJit (= session_1w)
//   session 2w, nproc  the same queries on more workers
//   clients4           4 concurrent copies of each query, nproc workers
//
// plus Build / MakeProgram / TypeCheck / VerifyProgram, the ORDER BY share
// of the row plan, a direct SpillFile pass and a direct decode pass.
#include <algorithm>
#include <memory>
#include <numeric>

#include "analysis/verify_program.h"
#include "driver/driver.h"
#include "driver/stats.h"
#include "dsl/typecheck.h"
#include "storage/spill_file.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using avm::engine::ExecutionStrategy;
using avm::engine::Query;
using avm::engine::QueryHandle;
using avm::engine::QueryOptions;
using avm::engine::Session;
using avm::engine::SessionOptions;

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 15;
constexpr size_t kMaxWarmReps = 8;

/// Repeat `rep` (returns seconds of one repetition) at least kMinReps times
/// and until `budget_s` is spent; returns the median repetition.
template <typename Rep>
double MedianOfReps(double budget_s, Rep rep) {
  avm::Stopwatch sw;
  std::vector<double> s;
  while (s.size() < kMinReps ||
         (s.size() < kMaxReps && sw.ElapsedSeconds() < budget_s)) {
    s.push_back(rep());
  }
  return Median(s);
}

/// One query of a rung's set: its shape, tables, and whether its result is
/// checked (the Output-only variant has no oracle).
struct Item {
  Shape shape;
  const Inputs* inputs;
  const Oracle* oracle;  ///< null = unchecked
  std::vector<Query> copies;
};

/// Runs a set of queries on one Session: each item's copies are submitted
/// together (concurrent clients), items one after another.
class SetRunner {
 public:
  SetRunner(std::vector<Item> items, size_t* failed)
      : items_(std::move(items)), failed_(failed) {}

  uint64_t rows_per_pass() const {
    uint64_t n = 0;
    for (const Item& it : items_) {
      n += InputRows(it.shape, *it.inputs) * it.copies.size();
    }
    return n;
  }

  /// One pass; returns its wall seconds. `clean` reports whether no query
  /// compiled a trace or requested a tier upgrade.
  double Pass(Session& session, const QueryOptions& opts, bool* clean) {
    avm::Stopwatch sw;
    *clean = true;
    for (Item& it : items_) {
      std::vector<QueryHandle> handles;
      for (Query& q : it.copies) {
        q.ResetAggregates();
        handles.push_back(session.Submit(q.context(), opts));
      }
      for (size_t c = 0; c < handles.size(); ++c) {
        auto r = handles[c].Wait();
        if (!r.ok()) {
          ++*failed_;
          *clean = false;
          continue;
        }
        if (r.value().traces_compiled > 0 ||
            r.value().tier_upgrades_requested > 0) {
          *clean = false;
        }
        if (it.oracle != nullptr &&
            !CheckResult(it.shape, it.copies[c], *it.oracle)) {
          ++*failed_;
        }
      }
    }
    return sw.ElapsedSeconds();
  }

  /// Warm until a clean pass with no compiler running (bounded), then the
  /// median pass time.
  double Time(Session& session, const QueryOptions& opts, double budget_s) {
    bool clean = false;
    for (size_t i = 0; i < kMaxWarmReps; ++i) {
      Pass(session, opts, &clean);
      if (clean && !HasChildProcesses()) break;
    }
    return MedianOfReps(budget_s, [&] { return Pass(session, opts, &clean); });
  }

 private:
  std::vector<Item> items_;
  size_t* failed_;
};

std::vector<Item> ItemsFor(const std::vector<Shape>& shapes, const Inputs& in,
                           const Oracle& oracle, size_t copies) {
  std::vector<Item> items;
  for (Shape s : shapes) {
    Item it{s, &in, &oracle, {}};
    for (size_t c = 0; c < copies; ++c) {
      it.copies.push_back(BuildQuery(s, in, true).ValueOrDie());
    }
    items.push_back(std::move(it));
  }
  return items;
}

std::unique_ptr<Session> MakeSession(size_t workers) {
  SessionOptions so;
  so.num_workers = workers;
  return std::make_unique<Session>(so);
}

/// Direct SpillFile pass: `runs` runs of three i64 columns totalling `rows`
/// rows; create, append, seal (fsync), validate, read back, close.
double SpillFilePass(uint64_t runs, uint64_t rows, size_t* failed) {
  runs = std::max<uint64_t>(runs, 1);
  const uint64_t per_run = (rows + runs - 1) / runs;
  std::vector<int64_t> data(std::max<uint64_t>(per_run, 1));
  std::iota(data.begin(), data.end(), 0);
  const std::vector<const uint8_t*> cols(
      3, reinterpret_cast<const uint8_t*>(data.data()));
  std::vector<int64_t> buf(4096);
  avm::Stopwatch sw;
  auto file = avm::storage::SpillFile::Create(
      {avm::TypeId::kI64, avm::TypeId::kI64, avm::TypeId::kI64});
  if (!file.ok()) {
    ++*failed;
    return sw.ElapsedSeconds();
  }
  avm::storage::SpillFile& f = *file.value();
  uint64_t left = rows;
  bool ok = true;
  for (uint64_t r = 0; r < runs && ok; ++r) {
    const uint64_t n = std::min(per_run, left);
    left -= n;
    ok = f.AppendRun(r, n, cols).ok();
  }
  ok = ok && f.Seal().ok() && f.ValidateChecksums().ok();
  for (uint64_t r = 0; r < f.num_runs() && ok; ++r) {
    for (size_t c = 0; c < 3 && ok; ++c) {
      for (uint64_t b = 0; b < f.run(r).rows && ok; b += buf.size()) {
        const uint64_t n = std::min<uint64_t>(buf.size(), f.run(r).rows - b);
        ok = f.ReadRunChunk(r, c, b, n, buf.data()).ok();
      }
    }
  }
  f.Close();
  if (!ok) ++*failed;
  return sw.ElapsedSeconds();
}

/// Direct ColumnChunkCursor pass over every column of `t`.
double DecodePass(const avm::Table& t) {
  std::vector<int64_t> buf(1024);
  avm::Stopwatch sw;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    avm::ColumnChunkCursor cur(&t.column(c));
    for (uint64_t row = 0; row < t.num_rows(); row += buf.size()) {
      const uint32_t n =
          static_cast<uint32_t>(std::min<uint64_t>(buf.size(), t.num_rows() - row));
      cur.ReadAt(row, n, buf.data()).Abort("perfbench: decode");
    }
  }
  return sw.ElapsedSeconds();
}

}  // namespace

std::map<std::string, double> RunLadder(const LadderInput& in) {
  std::map<std::string, double> m;
  size_t failed = 0;
  SpanRecorder& spans = *in.spans;
  ScopedSpan ladder_span(spans, "ladder");
  const WorkloadSpec& spec = *in.spec;
  const Inputs& own = *in.inputs;
  const size_t nproc = OnlineCpus();
  const double rung_s = in.budget_s / 10;

  // Tables the workload lacks (Q1 floors on join workloads, the row plan on
  // q1_agg) come from the small mixed_clients-sized set of the same seed.
  Inputs aux;
  Oracle aux_oracle;
  if (own.lineitem == nullptr || own.probe == nullptr) {
    ScopedSpan s(spans, "ladder.aux_inputs");
    aux = GenerateInputs(in.seed, SmallSizes());
    aux_oracle = ComputeOracle(aux, {Shape::kQ1, Shape::kJoinOrderBy});
  }
  const Inputs& q1_in = own.lineitem != nullptr ? own : aux;
  const Inputs& join_in = own.probe != nullptr ? own : aux;
  const Oracle& join_oracle = own.probe != nullptr ? *in.oracle : aux_oracle;

  // ---- relational floors.
  {
    ScopedSpan s(spans, "ladder.relational");
    const double rows = static_cast<double>(q1_in.lineitem->num_rows());
    m["relational.q1_scalar_ns_per_row"] =
        MedianOfReps(rung_s, [&] {
          avm::Stopwatch sw;
          avm::relational::RunQ1Scalar(*q1_in.lineitem).ValueOrDie();
          return sw.ElapsedSeconds();
        }) * 1e9 / rows;
    m["relational.q1_vectorized_ns_per_row"] =
        MedianOfReps(rung_s, [&] {
          avm::Stopwatch sw;
          avm::relational::RunQ1Vectorized(*q1_in.lineitem).ValueOrDie();
          return sw.ElapsedSeconds();
        }) * 1e9 / rows;
    const JoinColumns cols = DecodeJoinColumns(join_in);
    avm::relational::HashJoinI64 build(cols.d_key.size());
    for (size_t r = 0; r < cols.d_key.size(); ++r) {
      build.Insert(cols.d_key[r], static_cast<uint32_t>(r));
    }
    m["relational.join_sort_ns_per_row"] =
        MedianOfReps(rung_s, [&] {
          avm::Stopwatch sw;
          const JoinRows jr = ReferenceJoinOrderBy(cols, build);
          const double el = sw.ElapsedSeconds();
          if (jr.f_key.size() != join_oracle.join_rows) ++failed;
          return el;
        }) * 1e9 / static_cast<double>(cols.f_key.size());
  }

  // ---- engine rungs over the workload's own query set.
  QueryOptions base;
  base.memory_budget = spec.memory_budget;
  {
    SetRunner one(ItemsFor(spec.shapes, own, *in.oracle, 1), &failed);
    const double rows = static_cast<double>(one.rows_per_pass());
    QueryOptions interp = base;
    interp.strategy = ExecutionStrategy::kInterpret;
    {
      ScopedSpan s(spans, "ladder.interp_1w");
      auto session = MakeSession(1);
      m["interp.ns_per_row"] = one.Time(*session, interp, rung_s) * 1e9 / rows;
    }
    {
      ScopedSpan s(spans, "ladder.jit_1w");
      auto session = MakeSession(1);
      const double ns = one.Time(*session, base, rung_s) * 1e9 / rows;
      m["jit.ns_per_row"] = ns;
      m["engine.session.ns_per_row_1w"] = ns;
    }
    {
      ScopedSpan s(spans, "ladder.session_2w");
      auto session = MakeSession(2);
      m["engine.session.ns_per_row_2w"] =
          one.Time(*session, base, rung_s) * 1e9 / rows;
    }
    {
      ScopedSpan s(spans, "ladder.session_nw");
      auto session = MakeSession(nproc);
      m["engine.session.ns_per_row_4w"] =
          one.Time(*session, base, rung_s) * 1e9 / rows;
    }
    m["engine.session.scaling"] = m["engine.session.ns_per_row_1w"] /
                                  m["engine.session.ns_per_row_4w"];
  }
  {
    ScopedSpan s(spans, "ladder.clients4");
    SetRunner four(ItemsFor(spec.shapes, own, *in.oracle, 4), &failed);
    auto session = MakeSession(nproc);
    m["engine.session.clients4_ns_per_row"] =
        four.Time(*session, base, rung_s) * 1e9 /
        static_cast<double>(four.rows_per_pass());
  }

  // ---- QueryBuilder, DSL and verifier layers.
  {
    ScopedSpan s(spans, "ladder.query_builder");
    m["engine.query_builder.build_ms"] =
        MedianOfReps(rung_s, [&] {
          avm::Stopwatch sw;
          for (Shape shape : spec.shapes) {
            BuildQuery(shape, own, true).ValueOrDie();
          }
          return sw.ElapsedSeconds();
        }) * 1e3;
    std::vector<Query> queries;
    for (Shape shape : spec.shapes) {
      queries.push_back(BuildQuery(shape, own, true).ValueOrDie());
    }
    std::vector<double> lo, tc, vp;
    for (size_t rep = 0; rep < 5; ++rep) {
      double lower = 0, typecheck = 0, verify = 0;
      for (size_t i = 0; i < queries.size(); ++i) {
        const int64_t rows =
            static_cast<int64_t>(InputRows(spec.shapes[i], own));
        avm::Stopwatch sw;
        avm::dsl::Program p = queries[i].MakeProgram(rows).ValueOrDie();
        lower += sw.ElapsedSeconds();
        sw.Restart();
        avm::dsl::TypeCheck(&p).Abort("perfbench: typecheck");
        typecheck += sw.ElapsedSeconds();
        sw.Restart();
        avm::analysis::VerifyProgram(p);
        verify += sw.ElapsedSeconds();
      }
      lo.push_back(lower);
      tc.push_back(typecheck);
      vp.push_back(verify);
    }
    m["engine.query_builder.lower_us"] = Median(lo) * 1e6;
    m["dsl.typecheck_us"] = Median(tc) * 1e6;
    m["analysis.verify_program_us"] = Median(vp) * 1e6;
  }

  // ---- ORDER BY share of the row plan: with minus without OrderBy.
  {
    ScopedSpan s(spans, "ladder.orderby");
    auto session = MakeSession(nproc);
    std::vector<Item> with, without;
    with.push_back(Item{Shape::kJoinOrderBy, &join_in, &join_oracle, {}});
    with.back().copies.push_back(
        BuildQuery(Shape::kJoinOrderBy, join_in, true).ValueOrDie());
    without.push_back(Item{Shape::kJoinOrderBy, &join_in, nullptr, {}});
    without.back().copies.push_back(
        BuildQuery(Shape::kJoinOrderBy, join_in, false).ValueOrDie());
    SetRunner a(std::move(with), &failed);
    SetRunner b(std::move(without), &failed);
    m["engine.query_builder.orderby_ms"] =
        (a.Time(*session, base, rung_s) - b.Time(*session, base, rung_s)) *
        1e3;
  }

  // ---- storage: direct SpillFile and column decode passes.
  {
    ScopedSpan s(spans, "ladder.spill_file");
    std::vector<double> runs, rows;
    for (const QueryRecord& r : *in.steady) {
      if (!r.ok) continue;
      if (r.bytes_spilled > 0) {
        runs.push_back(static_cast<double>(r.spill_runs));
        rows.push_back(r.bytes_spilled / (3.0 * sizeof(int64_t)));
      } else {
        runs.push_back(static_cast<double>(r.morsels));
        rows.push_back(static_cast<double>(r.result_rows));
      }
    }
    const auto nruns = static_cast<uint64_t>(Median(runs));
    const auto nrows = static_cast<uint64_t>(Median(rows));
    m["storage.spill_file_ms"] =
        MedianOfReps(rung_s, [&] {
          return SpillFilePass(nruns, nrows, &failed);
        }) * 1e3;
  }
  {
    ScopedSpan s(spans, "ladder.decode");
    uint64_t rows = 0;
    for (Shape shape : spec.shapes) rows += InputRows(shape, own);
    m["storage.decode_ns_per_row"] =
        MedianOfReps(rung_s, [&] {
          double t = 0;
          for (Shape shape : spec.shapes) {
            t += DecodePass(shape == Shape::kQ1 ? *own.lineitem : *own.probe);
          }
          return t;
        }) * 1e9 / static_cast<double>(rows);
  }

  m["ladder.failed"] = static_cast<double>(failed);
  return m;
}

}  // namespace perfbench
