// The benchmark's workloads: seeded input generation, the queries each
// workload submits, and the hand-written oracles their results are checked
// against. perfbench/WORKLOADS.md explains why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_builder.h"
#include "relational/join.h"
#include "relational/q1.h"
#include "storage/table.h"

namespace perfbench {

/// Query shapes the workloads draw from.
enum class Shape : uint8_t {
  kQ1,           ///< relational::MakeQ1Query over lineitem
  kJoinAgg,      ///< relational::MakeJoinQuery, dense unique build keys
  kSemijoin,     ///< relational::MakeSemijoinQuery count
  kJoinOrderBy,  ///< filter + many-to-many hash join + 3 outputs + ORDER BY
};

const char* ShapeName(Shape s);

/// Input sizes of one data set.
struct DataSizes {
  uint64_t lineitem_rows = 0;  ///< 0 = no lineitem
  uint64_t probe_rows = 0;     ///< 0 = no join tables
  int64_t join_keys = 0;       ///< distinct keys of the duplicate-key build
};

struct WorkloadSpec {
  std::string name;
  DataSizes sizes;
  /// Per-query memory budget (0 = resident, no budget).
  uint64_t memory_budget = 0;
  /// Queries kept in flight by the closed-loop driver thread.
  size_t in_flight = 1;
  /// Shapes the loop submits; with several, each submission draws one from
  /// the seeded stream.
  std::vector<Shape> shapes;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The small per-query inputs of mixed_clients; the traced run also uses
/// them for ladder rungs a workload has no table of its own for.
DataSizes SmallSizes();

/// Tables generated from the seed alone.
///   lineitem: relational Q1 schema (storage/datagen.h)
///   probe:    f_key i64 in [-3, join_keys + 40] (some keys miss),
///             f_a i64 in [0, 999] (filter, semijoin and dense-join key),
///             f_b i64 in [0, 999] (payload)
///   dup:      d_key i64 in [0, join_keys) with 1..3 rows per key, d_val
///   dim:      k_key i64 = 0..999 unique (dense join path), k_val
///   semi:     semijoin filter over f_a, each key kept with p = 0.3
struct Inputs {
  std::unique_ptr<avm::Table> lineitem;
  std::unique_ptr<avm::Table> probe;
  std::unique_ptr<avm::Table> dup;
  std::unique_ptr<avm::Table> dim;
  std::unique_ptr<avm::relational::HashSetI64> semi;
};

Inputs GenerateInputs(uint64_t seed, const DataSizes& sizes);

/// Decoded join-side columns for the hand-written references.
struct JoinColumns {
  std::vector<int64_t> f_key, f_a, f_b;
  std::vector<int64_t> d_key, d_val;
  std::vector<int64_t> k_key, k_val;
};
JoinColumns DecodeJoinColumns(const Inputs& in);

/// Predicate of the join + ORDER BY plan: keep probe rows with f_a < this.
constexpr int64_t kJoinFilterBelow = 800;

/// Rows of the join + ORDER BY result in result order.
struct JoinRows {
  std::vector<int64_t> f_key, f_b, d_val;
};

/// Hand-written join + ORDER BY: a relational::HashJoinI64 probe over the
/// filtered rows, then std::stable_sort on f_key. `build` must hold
/// (d_key[r], r) for every build row r.
JoinRows ReferenceJoinOrderBy(const JoinColumns& cols,
                              const avm::relational::HashJoinI64& build);

/// FNV-1a over the three result columns, column-major, in row order.
uint64_t RowsChecksum(const int64_t* f_key, const int64_t* f_b,
                      const int64_t* d_val, uint64_t rows);

/// Expected results, computed once at set-up without the engine.
struct Oracle {
  avm::relational::Q1Result q1;
  uint64_t join_rows = 0;
  uint64_t join_checksum = 0;
  int64_t revenue = 0;
  int64_t matches = 0;
  int64_t survivors = 0;
};

Oracle ComputeOracle(const Inputs& in, const std::vector<Shape>& shapes);

/// Build the engine query of a shape over `in`. `order_by = false` drops the
/// ORDER BY of kJoinOrderBy (the Output-only variant the ladder subtracts).
avm::Result<avm::engine::Query> BuildQuery(Shape shape, const Inputs& in,
                                           bool order_by = true);

/// Input (scan or probe) rows one query of this shape reads.
uint64_t InputRows(Shape shape, const Inputs& in);

/// True when the finished query's result equals the oracle's.
bool CheckResult(Shape shape, const avm::engine::Query& q, const Oracle& o);

/// The kJoinOrderBy check on raw result columns (named f_key, f_b, d_val).
bool CheckJoinRows(const std::vector<avm::engine::Query::ResultColumn>& cols,
                   uint64_t rows, const Oracle& o);

}  // namespace perfbench
