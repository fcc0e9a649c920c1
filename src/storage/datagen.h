// Deterministic workload/data generators.
//
// Substitution (see ARCHITECTURE.md §Substitutions): instead of official
// TPC-H data we generate tables with the same column types, value domains
// and group cardinalities, which is what governs the behaviour of the
// paper's Q1/Q6-style experiments.
#pragma once

#include <memory>
#include <vector>

#include "storage/table.h"
#include "util/rng.h"

namespace avm {

/// Generic distributions for micro-benchmarks and tests.
class DataGen {
 public:
  explicit DataGen(uint64_t seed = 42) : rng_(seed) {}

  /// Uniform integers in [lo, hi].
  std::vector<int64_t> UniformI64(size_t n, int64_t lo, int64_t hi);
  std::vector<int32_t> UniformI32(size_t n, int32_t lo, int32_t hi);
  std::vector<double> UniformF64(size_t n, double lo, double hi);

  /// Zipf-distributed values over [0, domain).
  std::vector<int64_t> ZipfI64(size_t n, uint64_t domain, double theta);

  /// Sorted uniform integers (for Delta compression).
  std::vector<int64_t> SortedI64(size_t n, int64_t lo, int64_t hi);

  /// Values with average run length `run_len` (for RLE).
  std::vector<int64_t> RunsI64(size_t n, int64_t domain, double run_len);

  /// Bernoulli i64 in {0,1} with P(1) = selectivity; for filter sweeps.
  std::vector<int64_t> BernoulliI64(size_t n, double selectivity);

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

/// Scale-factor sized TPC-H-like lineitem. SF=1 would be 6M rows; we default
/// to row counts suitable for in-repo benchmarking.
struct LineitemSpec {
  uint64_t num_rows = 600'000;  // ~SF 0.1
  uint64_t seed = 42;
  uint32_t block_size = kDefaultBlockSize;
  /// When true, columns are compressed per-block with auto schemes;
  /// when false everything is stored Plain.
  bool compress = true;
};

/// Columns (fixed-point cents where TPC-H uses decimals):
///   l_quantity      i64 in [1, 50]
///   l_extendedprice i64 in [90000, 10500000]
///   l_discount      i64 in [0, 10]   (percent)
///   l_tax           i64 in [0, 8]    (percent)
///   l_returnflag    i8  in {0,1,2}   ('A','N','R')
///   l_linestatus    i8  in {0,1}     ('O','F')
///   l_shipdate      i32 days since epoch in [8036, 10561]
///                   (1992-01-02 .. 1998-12-01, as in TPC-H)
std::unique_ptr<Table> MakeLineitem(const LineitemSpec& spec);

/// Orders-like table for join benchmarks:
///   o_orderkey   i64 dense [0, num_rows)
///   o_custkey    i64 in [0, num_rows/10)
///   o_totalprice i64
///   o_orderdate  i32
std::unique_ptr<Table> MakeOrders(uint64_t num_rows, uint64_t seed = 43);

/// Part-like dimension table:
///   p_partkey i64 dense, p_size i32 in [1,50], p_retail i64
std::unique_ptr<Table> MakePart(uint64_t num_rows, uint64_t seed = 44);

}  // namespace avm
