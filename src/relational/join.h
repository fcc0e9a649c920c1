// Hash-join substrate and the adaptive semijoin chain (experiment E4).
//
// Section III-C: with a chain of selective HashJoins the VM can execute the
// more selective semijoin first and reorder on the fly when observed
// selectivities drift.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/query_builder.h"
#include "storage/table.h"
#include "storage/types.h"
#include "util/status.h"
#include "vm/reorder.h"

namespace avm::relational {

/// Open-addressing hash set over int64 keys (linear probing, pow2 size).
/// This is the build side of a semijoin filter.
class HashSetI64 {
 public:
  explicit HashSetI64(size_t expected = 16);

  void Insert(int64_t key);
  bool Contains(int64_t key) const;
  size_t size() const { return entries_; }

  /// All keys currently in the set (unordered). Used to densify a filter
  /// into a membership array for the engine/QueryBuilder semijoin path.
  std::vector<int64_t> Keys() const;

  /// Probe a chunk: out_sel receives qualifying positions. `in_sel`
  /// optionally restricts the probed positions.
  uint32_t ProbeSel(const int64_t* keys, const sel_t* in_sel, uint32_t n,
                    sel_t* out_sel) const;

 private:
  void Grow();
  std::vector<int64_t> keys_;
  std::vector<uint8_t> used_;
  size_t entries_ = 0;
  size_t mask_ = 0;
};

/// Full hash join (build: key -> payload row ids; probe returns matches).
/// Duplicate build keys are kept: each key chains every inserted row in
/// insertion order, so a probe fans out many-to-many. This is the scalar
/// reference oracle for the engine's QueryBuilder::Join hash path.
class HashJoinI64 {
 public:
  explicit HashJoinI64(size_t expected = 16);
  /// Append (key, row). Duplicate keys accumulate — nothing is replaced.
  void Insert(int64_t key, uint32_t row);
  /// Probe a chunk of keys; for each (probe position, matching build row)
  /// PAIR appends the pair to the outputs — one output per duplicate build
  /// row, build rows in insertion order. Returns the pair count. The
  /// output buffers must hold the worst case: n times the largest
  /// duplicate count on the build side.
  uint32_t Probe(const int64_t* keys, const sel_t* in_sel, uint32_t n,
                 sel_t* out_positions, uint32_t* out_rows) const;
  /// Number of build rows inserted (not distinct keys).
  size_t size() const { return rows_.size(); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  void Grow();
  struct Slot {
    int64_t key;
    uint32_t head;  ///< first entry in rows_ (insertion order)
    uint32_t tail;  ///< last entry, for O(1) append
    uint8_t used;
  };
  struct Entry {
    uint32_t row;
    uint32_t next;  ///< next duplicate of the same key, or kNil
  };
  std::vector<Slot> slots_;
  std::vector<Entry> rows_;
  size_t distinct_ = 0;
  size_t mask_ = 0;
};

/// A chain of semijoin filters applied to chunks, with on-the-fly adaptive
/// reordering by observed selectivity/cost.
class AdaptiveSemijoinChain {
 public:
  enum class OrderPolicy : uint8_t {
    kFixed,     ///< keep the given order
    kAdaptive,  ///< reorder via SelectiveOpReorderer
  };

  AdaptiveSemijoinChain(std::vector<const HashSetI64*> filters,
                        OrderPolicy policy);

  /// Apply all filters to a chunk of column values (one key column per
  /// filter). keys[f] is filter f's probe column. Returns surviving count;
  /// survivors' positions land in out_sel.
  uint32_t FilterChunk(const std::vector<const int64_t*>& keys, uint32_t n,
                       sel_t* out_sel, sel_t* scratch);

  const std::vector<size_t>& CurrentOrder() const {
    return reorderer_.Order();
  }
  uint64_t resorts() const { return reorderer_.resorts(); }

 private:
  std::vector<const HashSetI64*> filters_;
  OrderPolicy policy_;
  vm::SelectiveOpReorderer reorderer_;
};

/// The semijoin-chain count as an engine::QueryBuilder query: the rows of
/// `probe` whose `key_columns[f]` is in `filters[f]` for every f. Each
/// filter is densified into a shared membership array
/// (`membership[key] != 0`) that the lowered program gathers from, so the
/// scan runs through the Session's morsel scheduler and can interleave
/// with other queries.
/// Requires non-negative probe keys; each membership array is sized from
/// its own probe column's largest key (rejected above ~16M to bound
/// memory). Filter keys beyond that max are dropped — they cannot match
/// any probe row. Submit `query.context()` and read
/// `aggregate("survivors")[0]`.
Result<engine::Query> MakeSemijoinQuery(
    const Table& probe, const std::vector<std::string>& key_columns,
    const std::vector<const HashSetI64*>& filters);

/// The star-schema probe workload as a QueryBuilder query: hash-join
/// `probe` against the `build` dimension on
/// `probe[probe_key] == build[build_key]` — one output PAIR per (probe
/// row, matching build row), so duplicate build keys fan out many-to-many,
/// exactly like a chained HashJoinI64 probe — then aggregate:
///   "revenue"  = SUM(probe[probe_value] * build[build_value])   (i64)
///   "matches"  = COUNT(*)   (pairs, not probe rows)
/// grouped by `probe[probe_value] % num_groups` when `num_groups > 1`.
/// The build side materializes at Build() time into shared lookup arrays
/// (dense key-indexed when keys are unique and in-domain, a CSR hash table
/// otherwise), so the probe is a morsel-parallel gather that interleaves
/// with other queries on a Session. Both tables must outlive the Query.
Result<engine::Query> MakeJoinQuery(const Table& probe,
                                    const std::string& probe_key,
                                    const std::string& probe_value,
                                    const Table& build,
                                    const std::string& build_key,
                                    const std::string& build_value,
                                    size_t num_groups = 1);

}  // namespace avm::relational
