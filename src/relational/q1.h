// TPC-H Q1 analogue in multiple execution strategies (experiment E1).
//
// The paper's Plan step 1: "the same system [should] be able to either use
// vectorized execution, or tuple-at-a-time JIT compilation, as such
// mimicking the MonetDB/X100 and HyPer approaches inside the same
// framework" — and §I claims vectorized execution with adaptive
// optimizations (smaller data types, adaptively triggered pre-aggregation)
// can beat statically generated tuple-at-a-time code on Q1 [12].
//
// All strategies compute bit-identical integer results, which the test
// suite verifies differentially.
#pragma once

#include <array>
#include <cstdint>

#include "engine/query_builder.h"
#include "storage/datagen.h"
#include "storage/table.h"
#include "util/status.h"

namespace avm::relational {

/// shipdate predicate: l_shipdate <= kQ1Cutoff keeps ~98% of rows
/// (mirroring TPC-H Q1's DATE '1998-12-01' - 90 days).
constexpr int32_t kQ1Cutoff = 10510;

struct Q1Group {
  int64_t sum_qty = 0;
  int64_t sum_base_price = 0;
  int64_t sum_disc_price = 0;  ///< sum price*(100-disc)   (fixed-point %)
  int64_t sum_charge = 0;      ///< sum price*(100-disc)*(100+tax)
  int64_t count = 0;

  bool operator==(const Q1Group&) const = default;
};

/// Result by group id = returnflag*2 + linestatus (6 live groups).
struct Q1Result {
  std::array<Q1Group, 8> groups{};
  bool operator==(const Q1Result&) const = default;
};

/// Naive row-at-a-time reference (correctness oracle).
Result<Q1Result> RunQ1Scalar(const Table& lineitem);

/// MonetDB/X100-style vectorized execution: chunk-at-a-time kernels,
/// selection vectors, 64-bit arithmetic, direct array aggregation.
Result<Q1Result> RunQ1Vectorized(const Table& lineitem,
                                 uint32_t chunk_size = kDefaultChunkSize);

/// Vectorized + the paper's adaptive optimizations: compact data types
/// (i32 arithmetic where statistics prove safety) and per-chunk
/// pre-aggregation into cache-resident partials.
Result<Q1Result> RunQ1VectorizedCompact(
    const Table& lineitem, uint32_t chunk_size = kDefaultChunkSize);

/// HyPer-style whole-query tuple-at-a-time compilation through the JIT's
/// process-wide jit::CodeCache (-O2; compiled once per process). Fails
/// with CompilationError when no host compiler exists.
Result<Q1Result> RunQ1CompiledWholeQuery(const Table& lineitem);

/// Q1 as an engine::QueryBuilder query over `lineitem`: filter on shipdate,
/// dp/ch projections, group by returnflag*2+linestatus, five aggregates
/// (sum_qty, sum_base, sum_disc, sum_charge, count). The returned Query
/// owns its accumulators; submit `query.context()` to a Session (any number
/// of concurrent Q1 clients can each hold their own Query against one
/// shared session) and read the groups back with `Q1ResultFromQuery`.
Result<engine::Query> MakeQ1Query(const Table& lineitem);

/// Copy a finished MakeQ1Query run's aggregates into the Q1Result layout.
/// (Consumers below the Session that want the raw Q1 DSL program take
/// MakeQ1Query(...).ValueOrDie().context().program(), for any row count.)
Q1Result Q1ResultFromQuery(const engine::Query& query);

}  // namespace avm::relational
