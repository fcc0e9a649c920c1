// engine::QueryBuilder — a typed relational front end for the DSL engine.
//
// Hand-wiring a query meant writing a dsl::Program (reads, filters,
// selection-vector threading, scatter aggregation) plus a matching set of
// BindInput/BindShared/BindAccumulator calls, and keeping both in sync by
// hand. The builder derives all of it from a relational description:
//
//   engine::QueryBuilder qb(lineitem);
//   qb.Filter(dsl::Var("l_shipdate") <= dsl::ConstI(cutoff))
//     .Join(part, "l_partkey", "p_partkey", {"p_retail"})
//     .Project("dp", dsl::Var("l_extendedprice") *
//                        (dsl::ConstI(100) - dsl::Var("l_discount")))
//     .Aggregate(dsl::Cast(TypeId::kI64, dsl::Var("l_returnflag")), 4)
//     .Sum("sum_disc_price", dsl::Var("dp"))
//     .AvgF64("avg_retail", dsl::Var("p_retail"))
//     .Count("count");
//   engine::Query q = qb.Build().ValueOrDie();
//   session.Submit(q.context()).Wait();
//   int64_t total = q.aggregate("count")[0];
//
// Lowering infers every binding role from how the name is used:
//   scanned table columns     -> BindInput  (row-partitioned)
//   SemiJoin/Join lookups     -> BindShared (replicated dimension data)
//   aggregate accumulators    -> BindAccumulator (privatized + merged)
//   materialized output rows  -> BindPartialOutput (per-morsel windows)
// so every built query is morsel-parallel by construction.
//
// Two result shapes:
//  - Aggregate queries (Sum/Count/SumF64/AvgF64, optionally grouped): read
//    results with aggregate()/aggregate_f64(); with OrderBy() the per-group
//    rows are additionally materialized, sorted, into rows()/result_column()
//    at the query barrier.
//  - Row queries (Output()/OrderBy(), no aggregates): every surviving row's
//    selected columns are materialized — each morsel compacts and
//    partial-sorts its own output window, and the sorted runs are merged at
//    the Session barrier — and exposed via rows()/result_column().
//
// Expressions are plain dsl::ExprPtr scalar expressions (Var/ConstI/Cast
// and the infix operators of dsl/ast.h) over column names, join payloads,
// earlier projections, and nothing else — lambdas and skeletons are
// rejected; the builder inserts those itself.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/exec_engine.h"
#include "storage/table.h"

namespace avm::engine {

namespace internal {
struct QuerySpec;
}  // namespace internal

/// Sort direction of QueryBuilder::OrderBy.
enum class SortDir : uint8_t { kAscending = 0, kDescending };

/// How QueryBuilder::Join materializes the build side.
///  - kAuto: dense key-indexed lookup arrays when the build keys are
///    provably unique, non-negative and below the dense-domain cap
///    (~16M); a CSR-layout hash table otherwise. Both paths produce
///    bit-identical results; kAuto just picks the cheaper probe.
///  - kHash: always the CSR hash table (testing/benchmarking knob).
enum class JoinStrategy : uint8_t { kAuto = 0, kHash };

/// A built query: its ExecContext with the lowered program and every
/// binding attached, and owned result storage for aggregates and
/// materialized rows. Move-only; must outlive any in-flight submission of
/// its context.
class Query {
 public:
  /// One materialized output column: `rows * TypeWidth(type)` raw bytes in
  /// result order. Row-query columns are bit-exact across execution
  /// strategies and worker counts (per-row values, stable order). Ordered
  /// AGGREGATE queries carry accumulator values: f64 columns — and the row
  /// order, when sorting BY an f64 aggregate — are deterministic only up
  /// to f64 merge-order rounding under parallel execution.
  struct ResultColumn {
    std::string name;
    TypeId type = TypeId::kI64;
    std::vector<uint8_t> data;

    template <typename T>
    const T* As() const {
      return reinterpret_cast<const T*>(data.data());
    }
  };

  Query();  ///< empty (for Result<Query>); only a Built query is runnable
  Query(Query&&) noexcept;
  Query& operator=(Query&&) noexcept;
  ~Query();

  /// The context to pass to Session::Submit / Session::Run. One
  /// in-flight submission at a time (the accumulators are this query's).
  ExecContext& context();

  /// A fresh, not yet type-checked lowering of the context's program; its
  /// loop ends at len of the first scanned column, so `rows` is ignored.
  /// Exposed for consumers below the Session that drive a VM directly.
  Result<dsl::Program> MakeProgram(int64_t rows) const;

  /// Integer aggregate results (Sum/Count), one slot per group. Aborts on
  /// an unknown name or a floating-point aggregate (use aggregate_f64).
  const std::vector<int64_t>& aggregate(const std::string& name) const;

  /// Floating-point aggregate results, one slot per group: raw sums for
  /// SumF64; finalized averages for AvgF64 (0.0 for empty groups, computed
  /// at the query barrier — valid after the submission completed).
  const std::vector<double>& aggregate_f64(const std::string& name) const;

  /// Materialized result rows, populated at the query barrier: surviving
  /// input rows for Output()/OrderBy() row queries, per-group rows for
  /// ordered aggregate queries, 0 otherwise. Valid after the submission
  /// completed.
  uint64_t num_result_rows() const;
  /// A materialized output column by name; aborts on an unknown name.
  const ResultColumn& result_column(const std::string& name) const;
  /// All materialized output columns, in declaration order (row queries)
  /// or "group" followed by the aggregates (ordered aggregate queries).
  const std::vector<ResultColumn>& result_columns() const;

  /// Zero all accumulators and drop materialized rows so the query can be
  /// submitted again (also required after a cancelled/failed submission).
  void ResetAggregates();

  size_t num_groups() const;

 private:
  friend class QueryBuilder;
  struct Impl;
  explicit Query(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Fluent builder of one relational query over a scanned table (see the
/// file comment): Build() validates, lowers and returns a runnable Query.
class QueryBuilder {
 public:
  /// Scan the given table. The table must outlive the built Query.
  explicit QueryBuilder(const Table& table);
  ~QueryBuilder();
  QueryBuilder(const QueryBuilder&) = delete;
  QueryBuilder& operator=(const QueryBuilder&) = delete;

  /// Keep rows satisfying `predicate` (boolean expression over columns and
  /// earlier projections). Multiple filters conjoin in call order.
  QueryBuilder& Filter(dsl::ExprPtr predicate);

  /// Define a computed column usable in later expressions.
  QueryBuilder& Project(const std::string& name, dsl::ExprPtr expr);

  /// Keep rows whose integer `key` (column or projection) hits the
  /// dimension membership array: row survives iff membership[key] != 0.
  /// Every key value must lie in [0, membership.size()) — a stray key
  /// fails the run with OutOfRange (the gather bounds-checks its indices).
  /// The membership data is copied into the query and bound as a shared
  /// (replicated) dimension array.
  QueryBuilder& SemiJoin(const std::string& key,
                         std::vector<int64_t> membership);

  /// Hash equi-join against `build`: emit one output row per (probe row,
  /// matching build row) PAIR — duplicate build keys fan out many-to-many —
  /// and bring the named `payload` columns of the matching build row into
  /// scope for later expressions (all non-key build columns when `payload`
  /// is empty). Probe keys absent from the build side simply drop the row.
  ///
  /// Build() materializes the build side at Build() time. When the build
  /// keys are unique, non-negative and below ~16M, it densifies them into
  /// key-indexed lookup arrays (identity hash; the fast path). Otherwise —
  /// duplicate, negative, or sparse/huge keys, all of which are legal — it
  /// builds a CSR-layout hash table (bucket offset array + bucket-major
  /// key/row entry lists) and the probe fans out through bounds-checked
  /// gathers. Both paths are bit-identical: pairs appear in probe-row
  /// order, ties in build-row order, for any worker count. `build` must
  /// outlive the built Query.
  QueryBuilder& Join(const Table& build, const std::string& probe_key,
                     const std::string& build_key,
                     std::vector<std::string> payload = {});

  /// Override the automatic dense-vs-hash build-side selection for every
  /// Join of this query (see JoinStrategy). Tests use kHash to pin the
  /// CSR path against the dense fast path on the same data.
  QueryBuilder& SetJoinStrategy(JoinStrategy strategy);

  /// Group rows by `group_expr` (integer expression; values must lie in
  /// [0, num_groups)). Without this call, aggregates use a single group.
  QueryBuilder& Aggregate(dsl::ExprPtr group_expr, size_t num_groups);

  /// SUM(expr) per group into an i64 accumulator named `name`.
  QueryBuilder& Sum(const std::string& name, dsl::ExprPtr expr);

  /// SUM(expr) per group into an f64 accumulator (expr is cast to f64).
  /// NOTE: floating-point addition is not associative, so unlike the
  /// integer aggregates an f64 sum is only bit-reproducible for a fixed
  /// morsel merge order; parallel runs may differ from serial ones in the
  /// last ulps.
  QueryBuilder& SumF64(const std::string& name, dsl::ExprPtr expr);

  /// AVG(expr) per group: an f64 sum plus a hidden count, divided at the
  /// query barrier. Read with aggregate_f64(); empty groups average 0.0.
  QueryBuilder& AvgF64(const std::string& name, dsl::ExprPtr expr);

  /// COUNT(*) per group (counts surviving rows).
  QueryBuilder& Count(const std::string& name);

  /// Materialize `name` (column, payload, or projection) for every
  /// surviving row into the query's result rows. Row queries only (cannot
  /// be combined with aggregates).
  QueryBuilder& Output(const std::string& name);

  /// Order the materialized result. Row queries: `key` is a column,
  /// payload, or projection (added to the outputs if not already listed);
  /// each morsel partial-sorts its output window and the sorted runs merge
  /// at the Session barrier. Aggregate queries: `key` is "group" or an
  /// aggregate name, and the per-group rows are materialized sorted.
  /// f32/f64 keys put NaN after every number (first when descending).
  /// Ties keep input-row (or group) order, so results are deterministic —
  /// except that sorting by an f64 aggregate (SumF64/AvgF64) inherits the
  /// merge-order sensitivity of f64 addition: near-tie groups may swap
  /// between serial and parallel runs.
  QueryBuilder& OrderBy(const std::string& key,
                        SortDir dir = SortDir::kAscending);

  /// Validate, lower, type-check and verify the program the Query's context
  /// runs, so errors surface here and not mid-query. At least one
  /// aggregate or one Output/OrderBy is required.
  Result<Query> Build();

 private:
  Status Fail(Status st);  // records the first error for Build()
  /// Copy-on-write: built Queries share the spec; the first mutation (or
  /// Build) after a Build() forks it so they never see later edits.
  internal::QuerySpec& MutableSpec();

  std::shared_ptr<internal::QuerySpec> spec_;
  Status deferred_error_;
};

}  // namespace avm::engine
