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

  /// Sorted uniform integers (for Delta compression).
  std::vector<int64_t> SortedI64(size_t n, int64_t lo, int64_t hi);

  /// Values with average run length `run_len` (for RLE).
  std::vector<int64_t> RunsI64(size_t n, int64_t domain, double run_len);

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

}  // namespace avm
