#include "engine/query_builder.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <utility>

#include "analysis/verify_program.h"
#include "dsl/typecheck.h"
#include "engine/row_sort.h"
#include "storage/spill_file.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace avm::engine {

namespace {

using dsl::ConstI;
using dsl::ExprPtr;
using dsl::Lambda;
using dsl::SkeletonKind;
using dsl::StmtPtr;

/// Largest dense join/semijoin key domain the builder will materialize
/// (16M slots = 128 MiB of i64 per lookup array).
constexpr int64_t kMaxJoinDomain = int64_t{1} << 24;

/// Deep clone with variable-reference renaming (column names are let-bound
/// under a prefix in the lowered loop body, and filter fast paths rebind
/// the single input to a lambda parameter).
ExprPtr CloneSubst(const dsl::Expr& e,
                   const std::map<std::string, std::string>& subst) {
  auto out = std::make_shared<dsl::Expr>(e);
  out->id = 0;
  if (e.kind == dsl::ExprKind::kVarRef) {
    auto it = subst.find(e.var);
    if (it != subst.end()) out->var = it->second;
    return out;
  }
  if (e.body != nullptr) out->body = CloneSubst(*e.body, subst);
  out->args.clear();
  out->args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) out->args.push_back(CloneSubst(*a, subst));
  return out;
}

/// Names referenced by an expression, in first-appearance (pre-order)
/// order — this fixes the lambda parameter order of the lowered maps.
void CollectRefs(const dsl::Expr& e, std::vector<std::string>* out) {
  if (e.kind == dsl::ExprKind::kVarRef) {
    if (std::find(out->begin(), out->end(), e.var) == out->end()) {
      out->push_back(e.var);
    }
    return;
  }
  if (e.body != nullptr) CollectRefs(*e.body, out);
  for (const ExprPtr& a : e.args) CollectRefs(*a, out);
}

/// Builder expressions are scalar formulas; the builder inserts the
/// skeletons and lambdas itself.
Status ValidateScalarExpr(const dsl::Expr& e, const char* where) {
  if (e.kind == dsl::ExprKind::kLambda ||
      e.kind == dsl::ExprKind::kSkeleton) {
    return Status::InvalidArgument(
        StrFormat("%s: lambdas/skeletons are not allowed in builder "
                  "expressions (use Filter/Project/SemiJoin/Join/Aggregate)",
                  where));
  }
  if (e.body != nullptr) AVM_RETURN_NOT_OK(ValidateScalarExpr(*e.body, where));
  for (const ExprPtr& a : e.args) {
    AVM_RETURN_NOT_OK(ValidateScalarExpr(*a, where));
  }
  return Status::OK();
}

/// Rows per read buffer of a spilled run during the merge, summed over the
/// merge's parts: each part buffers kMergeChunkRows / parts rows per run.
constexpr uint64_t kMergeChunkRows = 4096;

/// Fewest output rows worth a merge part of their own: row output merges
/// in min(workers, rows / kMinMergePartRows) key-range parts, at least one.
constexpr uint64_t kMinMergePartRows = 16384;

/// Evenly spaced ORDER BY keys each sorted run records; the merge picks its
/// key-range splitters from the pooled samples of every run.
constexpr uint64_t kRunSamples = 64;

/// Row of sample j of a run of `rows` rows that records `samples` samples
/// (samples <= rows, so consecutive samples sit on distinct rows).
uint64_t SampleRow(uint64_t j, uint64_t samples, uint64_t rows) {
  return j * rows / samples;
}

/// Value `i` of a column of T stored at `base`.
template <typename T>
T LoadKey(const uint8_t* base, uint64_t i) {
  T v;
  std::memcpy(&v, base + i * sizeof(T), sizeof(T));
  return v;
}

/// First index in [lo, hi) whose key does not sort before `s`; key_at(i)
/// must be non-decreasing in KeyBefore order over the range.
template <typename T, typename KeyAt>
uint64_t LowerBound(uint64_t lo, uint64_t hi, T s, SortDir dir,
                    KeyAt key_at) {
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (KeyBefore(key_at(mid), s, dir)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Copies one value; a fixed-size memcpy per width compiles to one move.
void CopyValue(uint8_t* dst, const uint8_t* src, size_t width) {
  switch (width) {
    case 8: std::memcpy(dst, src, 8); return;
    case 4: std::memcpy(dst, src, 4); return;
    case 2: std::memcpy(dst, src, 2); return;
    default: std::memcpy(dst, src, 1); return;
  }
}

/// Read cursor over the rows [next, end) of one sorted run that one merge
/// part emits. `cols` holds one base per output column for the buffered
/// run rows [buf_begin, buf_begin + buf_len): a resident run buffers its
/// whole window slice as one chunk, a spilled run refills `chunk_rows`-row
/// buffers from its SpillFile.
struct RunCursor {
  uint64_t next = 0;  ///< next run row to emit
  uint64_t end = 0;   ///< one past the last run row to emit
  uint64_t buf_begin = 0;
  uint64_t buf_len = 0;
  std::vector<const uint8_t*> cols;
  // Spilled runs only: the file, the run's index in it, and the buffers.
  const storage::SpillFile* file = nullptr;
  uint64_t spill_run = 0;
  uint64_t chunk_rows = 0;
  std::vector<std::vector<uint8_t>> bufs;

  bool done() const { return next == end; }

  template <typename T>
  T Key(size_t col) const {
    return LoadKey<T>(cols[col], next - buf_begin);
  }

  Status Refill() {
    buf_begin = next;
    buf_len = std::min(chunk_rows, end - next);
    bufs.resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      bufs[c].resize(buf_len * TypeWidth(file->col_types()[c]));
      AVM_RETURN_NOT_OK(file->ReadRunChunk(spill_run, c, buf_begin, buf_len,
                                           bufs[c].data()));
      cols[c] = bufs[c].data();
    }
    return Status::OK();
  }

  Status Advance() {
    ++next;
    if (file == nullptr || done() || next < buf_begin + buf_len) {
      return Status::OK();
    }
    return Refill();
  }
};

/// The one run merge of row output: a tournament (loser tree) over `runs`,
/// given in morsel order, writing every row the cursors hold to the column
/// bases `out` (column c is widths[c] bytes wide). `key_of(run)` reads a
/// run's current key, and `before(a, b)` is true when key a sorts strictly
/// before key b; each live run's current key sits in one flat array, so a
/// match compares two entries. An exhausted run loses, and a later run
/// wins only with a strictly earlier key, so ties go to the earlier run and
/// the output equals one stable sort of the cursors' rows; with a `before`
/// that is always false (unordered output) the runs drain in morsel order.
/// Each row costs ceil(log2 k) matches.
template <typename KeyOf, typename Before>
Status MergeRuns(std::vector<RunCursor>& runs, KeyOf key_of, Before before,
                 const std::vector<uint8_t*>& out,
                 const std::vector<size_t>& widths) {
  const size_t k = runs.size();
  std::vector<decltype(key_of(runs[0]))> head(k);
  std::vector<uint8_t> live(k);
  uint64_t rows = 0;
  for (size_t i = 0; i < k; ++i) {
    live[i] = runs[i].done() ? 0 : 1;
    if (live[i]) head[i] = key_of(runs[i]);
    rows += runs[i].end - runs[i].next;
  }
  auto first = [&](size_t a, size_t b) {
    if (!live[a]) return false;
    if (!live[b]) return true;
    return a < b ? !before(head[b], head[a]) : before(head[a], head[b]);
  };
  // Leaf k + i is run i; inner node n in [1, k) keeps the loser of the
  // match played there. The initial bottom-up pass records each node's
  // winner in `win`; win[1] is the overall winner (run 0 when k == 1).
  std::vector<size_t> loser(k);
  std::vector<size_t> win(2 * k);
  std::iota(win.begin() + static_cast<ptrdiff_t>(k), win.end(), size_t{0});
  for (size_t n = k; n-- > 1;) {
    const size_t a = win[2 * n], b = win[2 * n + 1];
    const bool a_first = first(a, b);
    win[n] = a_first ? a : b;
    loser[n] = a_first ? b : a;
  }
  size_t winner = win[1];
  for (uint64_t dst = 0; dst < rows; ++dst) {
    RunCursor& rc = runs[winner];
    const uint64_t off = rc.next - rc.buf_begin;
    for (size_t c = 0; c < out.size(); ++c) {
      CopyValue(out[c] + dst * widths[c], rc.cols[c] + off * widths[c],
                widths[c]);
    }
    AVM_RETURN_NOT_OK(rc.Advance());
    if (rc.done()) {
      live[winner] = 0;
    } else {
      head[winner] = key_of(rc);
    }
    for (size_t n = (k + winner) / 2; n > 0; n /= 2) {
      if (first(loser[n], winner)) std::swap(loser[n], winner);
    }
  }
  return Status::OK();
}

}  // namespace

using Spec = internal::QuerySpec;

// -------------------------------------------------------------------- spec

struct internal::QuerySpec {
  struct Step {
    enum class Kind : uint8_t { kFilter, kProject, kSemiJoin, kJoin };
    Kind kind;
    std::string name;   // kProject: projection; kSemiJoin/kJoin: probe key
    ExprPtr expr;       // kFilter / kProject
    size_t dim = 0;     // kSemiJoin: index into dims; kJoin: into joins
  };
  enum class AggKind : uint8_t { kSum, kCount, kSumF64, kAvgF64 };
  struct Agg {
    std::string name;
    AggKind kind = AggKind::kSum;
    ExprPtr expr;  // null for Count
  };
  /// One hash equi-join. Build() materializes the build side one of two
  /// ways, chosen automatically (bit-identical results either way):
  ///  - dense fast path (keys unique, non-negative, below kMaxJoinDomain):
  ///    key-indexed lookup arrays (identity-hashed open table: slot == key,
  ///    plus one guard slot that never matches) so the probe is a plain
  ///    shared-array gather;
  ///  - CSR hash table (duplicate / negative / sparse keys): a power-of-two
  ///    bucket offset array plus bucket-major key/row entry lists, stable
  ///    by build row, so duplicate keys fan out one output row per match.
  struct JoinDim {
    const Table* build = nullptr;
    std::string build_key;
    std::vector<std::string> payload;  ///< requested; empty = all non-key
    // Derived by Resolve():
    std::vector<std::string> cols;     ///< resolved payload column names
    bool dense = true;                 ///< dense fast path vs CSR hash table
    // Dense fast path:
    int64_t max_key = -1;              ///< guard slot = max_key + 1
    std::vector<int64_t> match;        ///< 1 where a build key exists
    // CSR hash table:
    uint64_t num_buckets = 0;          ///< power of two
    std::vector<int64_t> bkt_start;    ///< num_buckets + 1 offsets
    std::vector<int64_t> ent_key;      ///< bucket-major build keys
    std::vector<int64_t> ent_row;      ///< bucket-major build row ids
    uint64_t dup_max = 1;              ///< max build rows sharing one key
    struct Pay {
      TypeId type = TypeId::kI64;
      std::vector<uint8_t> data;  ///< dense: (max_key + 2) slots; hash:
                                  ///< build-row-major copies
    };
    std::vector<Pay> pays;             ///< parallel to cols
  };

  const Table* table = nullptr;
  std::vector<Step> steps;
  std::vector<std::vector<int64_t>> dims;  ///< shared membership arrays
  std::vector<JoinDim> joins;
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  ExprPtr group_expr;                      ///< null = single group
  size_t num_groups = 1;
  std::vector<Agg> aggs;
  std::vector<std::string> outputs;        ///< Output() calls, in order
  bool has_order = false;
  std::string order_by;
  SortDir order_dir = SortDir::kAscending;

  // Derived by Resolve().
  std::vector<std::string> columns;  ///< referenced, schema order
  std::vector<const Column*> column_ptrs;
  bool row_mode = false;             ///< materialize rows (no aggregates)
  std::vector<std::string> out_cols; ///< final output list (order key incl.)
  std::vector<TypeId> out_types;     ///< parallel; fixed by Build
  size_t order_key_index = 0;        ///< row mode: order_by's out_cols slot
  /// Worst-case output rows per probe row: the product of dup_max over the
  /// hash-table joins (1 with only dense joins). Row-mode output windows
  /// are sized input_rows x fan_out and partitioned with this row scale.
  uint64_t fan_out = 1;

  std::string DimName(size_t i) const { return StrFormat("sj%zu", i); }
  std::string JoinMatchName(size_t i) const { return StrFormat("jm_%zu", i); }
  std::string JoinBucketName(size_t i) const { return StrFormat("jb_%zu", i); }
  std::string JoinEntKeyName(size_t i) const { return StrFormat("jk_%zu", i); }
  std::string JoinEntRowName(size_t i) const { return StrFormat("jr_%zu", i); }
  std::string JoinPayName(size_t i, size_t j) const {
    return StrFormat("jp_%zu_%zu", i, j);
  }
  static std::string ColValue(const std::string& col) { return "col_" + col; }
  static std::string AccName(const std::string& agg) { return "acc_" + agg; }
  static std::string AvgCntName(const std::string& agg) {
    return "avn_" + agg;
  }
  static std::string OutName(const std::string& col) { return "out_" + col; }

  Status Resolve();
  Status BuildJoinDim(JoinDim& jd) const;
  Result<dsl::Program> Lower() const;
  /// Row mode: set out_types to the types of the values `program` (this
  /// spec's type-checked lowering) writes, and retype its out_
  /// declarations and their references to match.
  void FixOutputTypes(dsl::Program* program);
};

namespace {

// Names the lowering generates itself: numbered okayN/predN/memN/keyN/sjN/
// jidxN/jpiN/pvN/ovN/owN (plus the hash-join probe's jhN/jcsN/jceN/jcnN/
// jfoN/jcaN/jckN/jcrN/jpkN/jrbN), the col_/acc_/avn_/cnt_/sv_/out_/jv_/
// jm_/jp_/jb_/jk_/jr_ prefixes, and the static loop counter / group /
// output-count / pass-through names.
bool IsReservedName(const std::string& n) {
  if (n.empty() || n == "i" || n == "grp" || n == "_sel" || n == "onum" ||
      n == "group") {
    return true;
  }
  for (const char* p :
       {"col_", "acc_", "avn_", "cnt_", "sv_", "out_", "jv_", "jm_", "jp_",
        "jb_", "jk_", "jr_"}) {
    if (n.rfind(p, 0) == 0) return true;
  }
  for (const char* p :
       {"okay", "pred", "mem", "key", "sj", "jidx", "jpi", "pv", "ov", "ow",
        "jh", "jcs", "jce", "jcn", "jfo", "jca", "jck", "jcr", "jpk", "jrb"}) {
    const size_t l = std::strlen(p);
    if (n.size() > l && n.compare(0, l, p) == 0 &&
        std::all_of(n.begin() + static_cast<ptrdiff_t>(l), n.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status internal::QuerySpec::BuildJoinDim(JoinDim& jd) const {
  AVM_ASSIGN_OR_RETURN(const Column* key_col,
                       jd.build->ColumnByName(jd.build_key));
  if (key_col->type() != TypeId::kI64) {
    return Status::TypeError("Join build key column must be i64: " +
                             jd.build_key);
  }
  const uint64_t rows = jd.build->num_rows();
  constexpr uint32_t kChunk = 4096;

  // Pass 1: read every build key and size up the domain.
  std::vector<int64_t> keys(rows);
  int64_t min_key = 0;
  jd.max_key = -1;
  for (uint64_t pos = 0; pos < rows; pos += kChunk) {
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(kChunk, rows - pos));
    AVM_RETURN_NOT_OK(key_col->Read(pos, n, keys.data() + pos));
    for (uint32_t i = 0; i < n; ++i) {
      const int64_t k = keys[pos + i];
      min_key = std::min(min_key, k);
      jd.max_key = std::max(jd.max_key, k);
    }
  }

  // Dense fast path iff every key fits the dense domain AND is unique (the
  // duplicate check piggybacks on filling the match array). Everything
  // else — duplicates, negative keys, sparse/huge domains — goes through
  // the CSR hash table; both paths are bit-identical on any workload the
  // dense path accepts.
  jd.dense = join_strategy == JoinStrategy::kAuto && min_key >= 0 &&
             jd.max_key + 1 < kMaxJoinDomain;
  if (jd.dense) {
    // Densify: slot == key (identity hash, collision-free by construction);
    // the extra guard slot max_key + 1 stays unmatched and absorbs every
    // clamped out-of-domain probe key.
    const size_t size = static_cast<size_t>(jd.max_key + 2);
    jd.match.assign(size, 0);
    for (uint64_t r = 0; r < rows && jd.dense; ++r) {
      if (jd.match[keys[r]] != 0) jd.dense = false;  // duplicate key
      jd.match[keys[r]] = 1;
    }
    if (!jd.dense) jd.match = {};
  }
  jd.num_buckets = 0;
  jd.bkt_start = {};
  jd.ent_key = {};
  jd.ent_row = {};
  jd.dup_max = 1;
  if (!jd.dense) {
    // CSR hash table. Bucket count: power of two >= 2x rows; the bucket
    // formula ((h % B) + B) % B is total for every i64 (B > 0, so the DSL
    // mod's b==0/b==-1 guards never fire) and must match the lowered
    // probe's map EXACTLY — interpreter, compiled trace, and this build
    // loop all reduce the same HashInt64 the same way.
    uint64_t bkts = 1;
    while (bkts < rows * 2) bkts <<= 1;
    jd.num_buckets = bkts;
    const int64_t b64 = static_cast<int64_t>(bkts);
    auto bucket_of = [&](int64_t k) -> size_t {
      const int64_t h = static_cast<int64_t>(
          HashInt64(static_cast<uint64_t>(k)));
      return static_cast<size_t>(((h % b64) + b64) % b64);
    };
    jd.bkt_start.assign(bkts + 1, 0);
    for (uint64_t r = 0; r < rows; ++r) {
      ++jd.bkt_start[bucket_of(keys[r]) + 1];
    }
    for (size_t b = 1; b <= bkts; ++b) jd.bkt_start[b] += jd.bkt_start[b - 1];
    // Counting sort, stable by build row: duplicate keys land in their
    // bucket in build-row order, which is what makes the probe's pair
    // order (probe-row major, build-row ascending) deterministic.
    // Entry arrays are padded to one slot so empty build sides still bind
    // a valid gather base (never addressed: every bucket is empty).
    jd.ent_key.assign(std::max<uint64_t>(rows, 1), 0);
    jd.ent_row.assign(std::max<uint64_t>(rows, 1), 0);
    std::vector<int64_t> cursor(jd.bkt_start.begin(), jd.bkt_start.end() - 1);
    std::map<int64_t, uint64_t> key_count;
    for (uint64_t r = 0; r < rows; ++r) {
      const size_t b = bucket_of(keys[r]);
      jd.ent_key[static_cast<size_t>(cursor[b])] = keys[r];
      jd.ent_row[static_cast<size_t>(cursor[b])] = static_cast<int64_t>(r);
      ++cursor[b];
      jd.dup_max = std::max(jd.dup_max, ++key_count[keys[r]]);
    }
  }

  // Payload arrays: dense -> key-indexed slots; hash -> build-row-major
  // copies (the probe gathers them at the matching entry's build row).
  const size_t size = jd.dense ? static_cast<size_t>(jd.max_key + 2)
                               : static_cast<size_t>(
                                     std::max<uint64_t>(rows, 1));
  jd.pays.resize(jd.cols.size());
  std::vector<uint8_t> buf;
  for (size_t c = 0; c < jd.cols.size(); ++c) {
    AVM_ASSIGN_OR_RETURN(const Column* col,
                         jd.build->ColumnByName(jd.cols[c]));
    JoinDim::Pay& pay = jd.pays[c];
    pay.type = col->type();
    const size_t w = TypeWidth(pay.type);
    pay.data.assign(size * w, 0);
    buf.resize(kChunk * w);
    for (uint64_t pos = 0; pos < rows; pos += kChunk) {
      const uint32_t n =
          static_cast<uint32_t>(std::min<uint64_t>(kChunk, rows - pos));
      AVM_RETURN_NOT_OK(col->Read(pos, n, buf.data()));
      for (uint32_t i = 0; i < n; ++i) {
        const size_t slot = jd.dense ? static_cast<size_t>(keys[pos + i])
                                     : static_cast<size_t>(pos + i);
        std::memcpy(&pay.data[slot * w], &buf[static_cast<size_t>(i) * w], w);
      }
    }
  }
  return Status::OK();
}

Status internal::QuerySpec::Resolve() {
  row_mode = aggs.empty();
  if (aggs.empty() && outputs.empty() && !has_order) {
    return Status::InvalidArgument(
        "QueryBuilder needs at least one aggregate (Sum/Count/SumF64/"
        "AvgF64) or a materialized output (Output/OrderBy)");
  }
  if (!aggs.empty() && !outputs.empty()) {
    return Status::InvalidArgument(
        "Output() cannot be combined with aggregates; ordered per-group "
        "rows come from OrderBy on an aggregate query");
  }
  if (row_mode && group_expr != nullptr) {
    return Status::InvalidArgument(
        "Aggregate(group) requires at least one Sum/Count aggregate");
  }
  // Re-derive from scratch: the builder may Build() more than once (the
  // spec is re-resolved after each mutation).
  columns.clear();
  column_ptrs.clear();
  out_cols.clear();
  out_types.clear();
  fan_out = 1;
  const Schema& schema = table->schema();

  // Accept a referenced table column, rejecting reserved-named columns
  // eagerly: their data declarations would collide with generated names
  // deep in the lowering, surfacing as baffling type errors.
  std::set<std::string> projections;  // projections + join payloads
  std::set<std::string> used_columns;
  auto use_column = [&](const std::string& name) -> Status {
    if (IsReservedName(name)) {
      return Status::InvalidArgument(
          StrFormat("column name '%s' collides with the lowering's "
                    "reserved names; rename the column to use it with "
                    "QueryBuilder",
                    name.c_str()));
    }
    used_columns.insert(name);
    return Status::OK();
  };
  auto resolve_expr = [&](const dsl::Expr& e, const char* where) -> Status {
    AVM_RETURN_NOT_OK(ValidateScalarExpr(e, where));
    std::vector<std::string> refs;
    CollectRefs(e, &refs);
    for (const std::string& r : refs) {
      if (projections.contains(r)) continue;
      if (schema.FieldIndex(r) >= 0) {
        AVM_RETURN_NOT_OK(use_column(r));
        continue;
      }
      return Status::InvalidArgument(
          StrFormat("%s references '%s', which is neither a column of the "
                    "scanned table, a join payload, nor an earlier "
                    "projection",
                    where, r.c_str()));
    }
    if (refs.empty()) {
      return Status::InvalidArgument(
          StrFormat("%s references no column or projection", where));
    }
    return Status::OK();
  };
  auto check_fresh_name = [&](const std::string& name,
                              const char* what) -> Status {
    if (IsReservedName(name)) {
      return Status::InvalidArgument(
          StrFormat("%s name '%s' is reserved", what, name.c_str()));
    }
    if (schema.FieldIndex(name) >= 0 || projections.contains(name)) {
      return Status::InvalidArgument(
          StrFormat("%s name '%s' collides with a column or projection",
                    what, name.c_str()));
    }
    return Status::OK();
  };
  auto check_key = [&](const std::string& key, const char* what) -> Status {
    if (!projections.contains(key) && schema.FieldIndex(key) < 0) {
      return Status::InvalidArgument(
          StrFormat("%s key '%s' is neither a column nor an earlier "
                    "projection",
                    what, key.c_str()));
    }
    if (schema.FieldIndex(key) >= 0) {
      AVM_RETURN_NOT_OK(use_column(key));
    }
    return Status::OK();
  };

  for (const Step& s : steps) {
    switch (s.kind) {
      case Step::Kind::kFilter:
        AVM_RETURN_NOT_OK(resolve_expr(*s.expr, "Filter predicate"));
        break;
      case Step::Kind::kProject:
        AVM_RETURN_NOT_OK(check_fresh_name(s.name, "Project"));
        AVM_RETURN_NOT_OK(resolve_expr(*s.expr, "Project expression"));
        projections.insert(s.name);
        break;
      case Step::Kind::kSemiJoin: {
        if (dims[s.dim].empty()) {
          return Status::InvalidArgument(
              "SemiJoin membership array must not be empty");
        }
        AVM_RETURN_NOT_OK(check_key(s.name, "SemiJoin"));
        break;
      }
      case Step::Kind::kJoin: {
        JoinDim& jd = joins[s.dim];
        AVM_RETURN_NOT_OK(check_key(s.name, "Join"));
        const Schema& bs = jd.build->schema();
        jd.cols.clear();
        if (jd.payload.empty()) {
          for (size_t i = 0; i < bs.num_fields(); ++i) {
            if (bs.field(i).name != jd.build_key) {
              jd.cols.push_back(bs.field(i).name);
            }
          }
        } else {
          jd.cols = jd.payload;
        }
        for (const std::string& c : jd.cols) {
          if (bs.FieldIndex(c) < 0) {
            return Status::InvalidArgument(
                "Join payload '" + c + "' is not a build-side column");
          }
          AVM_RETURN_NOT_OK(check_fresh_name(c, "Join payload"));
          projections.insert(c);
        }
        // Materialize the build side now so Build-time errors surface
        // before anything is submitted, and so the dense-vs-hash choice
        // (and with it the query's worst-case fan-out) is known.
        AVM_RETURN_NOT_OK(BuildJoinDim(jd));
        if (!jd.dense) {
          if (jd.dup_max != 0 &&
              fan_out > (uint64_t{1} << 40) / jd.dup_max) {
            return Status::ResourceExhausted(
                "Join fan-out too large to size output windows (column " +
                jd.build_key + ")");
          }
          fan_out *= jd.dup_max;
        }
        break;
      }
    }
  }
  if (group_expr != nullptr) {
    AVM_RETURN_NOT_OK(resolve_expr(*group_expr, "Aggregate group"));
  }
  std::set<std::string> agg_names;
  for (const Agg& a : aggs) {
    AVM_RETURN_NOT_OK(check_fresh_name(a.name, "aggregate"));
    if (!agg_names.insert(a.name).second) {
      return Status::InvalidArgument("duplicate aggregate name " + a.name);
    }
    if (a.expr != nullptr) {
      AVM_RETURN_NOT_OK(resolve_expr(*a.expr, "Sum expression"));
    }
  }

  // Output / OrderBy resolution.
  if (row_mode) {
    std::set<std::string> seen;
    auto add_output = [&](const std::string& name) -> Status {
      if (!seen.insert(name).second) {
        return Status::InvalidArgument("duplicate Output name " + name);
      }
      if (!projections.contains(name)) {
        if (schema.FieldIndex(name) < 0) {
          return Status::InvalidArgument(
              StrFormat("Output/OrderBy '%s' is neither a column, a join "
                        "payload, nor a projection",
                        name.c_str()));
        }
        AVM_RETURN_NOT_OK(use_column(name));
      }
      out_cols.push_back(name);
      return Status::OK();
    };
    for (const std::string& o : outputs) AVM_RETURN_NOT_OK(add_output(o));
    if (has_order && !seen.contains(order_by)) {
      AVM_RETURN_NOT_OK(add_output(order_by));
    }
    if (has_order) {
      for (size_t i = 0; i < out_cols.size(); ++i) {
        if (out_cols[i] == order_by) order_key_index = i;
      }
    }
  } else if (has_order) {
    if (order_by != "group" && !agg_names.contains(order_by)) {
      return Status::InvalidArgument(
          StrFormat("OrderBy '%s' on an aggregate query must name \"group\" "
                    "or an aggregate",
                    order_by.c_str()));
    }
  }

  if (used_columns.empty()) {
    return Status::InvalidArgument(
        "query references no table column (nothing drives the scan)");
  }

  // Schema order keeps the lowered program (and its trace fingerprints)
  // independent of expression-walk order.
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const std::string& name = schema.field(i).name;
    if (!used_columns.contains(name)) continue;
    columns.push_back(name);
    AVM_ASSIGN_OR_RETURN(const Column* col, table->ColumnByName(name));
    column_ptrs.push_back(col);
  }

  // Row mode: the output declarations need the VALUE types, which only the
  // type checker knows (projection types follow promotion rules). Until
  // Build reads them off its checked lowering they are placeholders: the
  // write skeleton does not constrain its destination's type.
  out_types.assign(out_cols.size(), TypeId::kI64);
  return Status::OK();
}

void internal::QuerySpec::FixOutputTypes(dsl::Program* program) {
  dsl::VisitExprs(*program, [&](const dsl::ExprPtr& e) {
    if (e->kind != dsl::ExprKind::kSkeleton ||
        e->skeleton != SkeletonKind::kWrite) {
      return;
    }
    for (size_t i = 0; i < out_cols.size(); ++i) {
      if (OutName(out_cols[i]) != e->args[0]->var) continue;
      out_types[i] = e->args[2]->type;
      e->args[0]->type = out_types[i];
    }
  });
  for (dsl::DataDecl& d : program->data) {
    for (size_t i = 0; i < out_cols.size(); ++i) {
      if (OutName(out_cols[i]) == d.name) d.type = out_types[i];
    }
  }
}

// ---------------------------------------------------------------- lowering

namespace {

/// Mutable state of one lowering pass: the loop body being emitted plus the
/// name/selection bookkeeping that turns impossible selection combinations
/// into Build-time errors (the interpreter's CommonSelection rule).
struct Lowering {
  const Spec& spec;
  std::vector<StmtPtr> body;
  /// user name -> loop value currently holding it ("" sel = positional).
  std::map<std::string, std::string> value_of;
  /// Selection each loop value carries ("" = positional, all chunk rows).
  std::map<std::string, std::string> value_sel;
  /// Projection name -> defining builder expression (for positional
  /// re-derivation of join keys).
  std::map<std::string, const dsl::Expr*> proj_expr;
  /// Join payload -> (positional index value, lookup array name).
  struct PaySrc {
    std::string idx;
    std::string array;
  };
  std::map<std::string, PaySrc> payload_src;
  /// (payload, selection) -> gathered value let (payloads re-gather lazily
  /// under the CURRENT selection so they compose with post-join values).
  std::map<std::pair<std::string, std::string>, std::string> pay_cache;
  /// name -> positional (selection-free) value let.
  std::map<std::string, std::string> pos_cache;
  std::string cur_sel;  // selection-carrying value, "" before any filter
  int gen = 0;          // generated-name counter
  /// True after a hash-table join switched the loop to the (probe row,
  /// build row) pair domain: chunk positions no longer line up with the
  /// scanned columns, so PosName must serve schema columns from the
  /// rebased pair-domain values instead of the raw col_ reads.
  bool rebased = false;

  explicit Lowering(const Spec& s) : spec(s) {}

  void Emit(StmtPtr stmt) { body.push_back(std::move(stmt)); }

  /// The loop value for `name` under the current selection, materializing
  /// join payloads on demand (a gather through the join's positional index
  /// vector threaded with the current selection).
  Result<std::string> UseName(const std::string& name) {
    auto ps = payload_src.find(name);
    if (ps == payload_src.end()) return value_of.at(name);
    auto key = std::make_pair(name, cur_sel);
    auto hit = pay_cache.find(key);
    if (hit != pay_cache.end()) return hit->second;
    using namespace dsl;
    std::string idx = ps->second.idx;
    if (!cur_sel.empty()) {
      const std::string sel_idx = StrFormat("jpi%d", gen++);
      Emit(Let(sel_idx,
               Skeleton(SkeletonKind::kMap,
                        {Lambda({"k", "_sel"}, Var("k")), Var(idx),
                         Var(cur_sel)})));
      idx = sel_idx;
    }
    // One payload may be gathered under several selections as filters
    // refine; the counter keeps every re-gather's let name unique.
    const std::string let_name = StrFormat("jv_%s_%d", name.c_str(), gen++);
    Emit(Let(let_name, Skeleton(SkeletonKind::kGather,
                                {Var(ps->second.array), Var(idx)})));
    value_sel[let_name] = cur_sel;
    pay_cache[key] = let_name;
    return let_name;
  }

  Result<std::string> SelOf(const std::string& user_name) {
    AVM_ASSIGN_OR_RETURN(std::string v, UseName(user_name));
    return value_sel.at(v);
  }

  /// A positional (selection-free) value for `name`, valid at EVERY chunk
  /// position: columns are positional by construction, payloads gather
  /// through the positional index vector, and post-filter projections are
  /// re-computed over all rows (safe: every scalar op, including div/mod by
  /// zero, is total and deterministic).
  Result<std::string> PosName(const std::string& name) {
    auto hit = pos_cache.find(name);
    if (hit != pos_cache.end()) return hit->second;
    if (!rebased && spec.table->schema().FieldIndex(name) >= 0) {
      return Spec::ColValue(name);
    }
    using namespace dsl;
    auto ps = payload_src.find(name);
    if (ps != payload_src.end()) {
      const std::string val = StrFormat("pv%d", gen++);
      Emit(Let(val, Skeleton(SkeletonKind::kGather,
                             {Var(ps->second.array), Var(ps->second.idx)})));
      value_sel[val] = "";
      pos_cache[name] = val;
      return val;
    }
    const std::string& cur = value_of.at(name);
    if (value_sel.at(cur).empty()) {
      pos_cache[name] = cur;
      return cur;
    }
    const dsl::Expr* def = proj_expr.at(name);
    std::vector<std::string> refs;
    CollectRefs(*def, &refs);
    std::map<std::string, std::string> subst;
    std::vector<std::string> params;
    std::vector<ExprPtr> args = {nullptr};
    for (const std::string& r : refs) {
      AVM_ASSIGN_OR_RETURN(std::string p, PosName(r));
      subst[r] = p;
      params.push_back(p);
      args.push_back(Var(p));
    }
    args[0] = Lambda(std::move(params), CloneSubst(*def, subst));
    const std::string val = StrFormat("pv%d", gen++);
    Emit(Let(val, Skeleton(SkeletonKind::kMap, std::move(args))));
    value_sel[val] = "";
    pos_cache[name] = val;
    return val;
  }

  /// Lower `expr` as a map over its referenced values; the current
  /// selection (if any) rides along as a trailing pass-through input, the
  /// Q1 idiom for propagating selection vectors through a pipeline.
  /// Returns the map expression; *out_sel reports the selection the map's
  /// output carries.
  Result<ExprPtr> LowerMap(const dsl::Expr& expr, ExprPtr lowered_body,
                           std::string* out_sel) {
    using namespace dsl;
    std::vector<std::string> refs;
    CollectRefs(expr, &refs);
    std::string have;  // selection carried by the inputs
    std::vector<std::string> params;
    std::vector<ExprPtr> args = {nullptr};  // lambda goes first
    for (const std::string& r : refs) {
      AVM_ASSIGN_OR_RETURN(std::string v, UseName(r));
      const std::string& s = value_sel.at(v);
      if (!s.empty()) {
        if (!have.empty() && have != s) {
          return Status::InvalidArgument(
              StrFormat("expression combines values filtered at different "
                        "pipeline positions ('%s' carries %s); re-project "
                        "after the last filter instead",
                        r.c_str(), s.c_str()));
        }
        have = s;
      }
      params.push_back(v);
      args.push_back(Var(v));
    }
    if (have.empty() && !cur_sel.empty()) {
      // Positional inputs: thread the current selection through so the
      // output computes (and carries) only surviving rows.
      params.push_back("_sel");
      args.push_back(Var(cur_sel));
      have = cur_sel;
    }
    args[0] = Lambda(std::move(params), std::move(lowered_body));
    if (out_sel != nullptr) *out_sel = have;
    return Skeleton(SkeletonKind::kMap, std::move(args));
  }

  Result<ExprPtr> Rename(const dsl::Expr& expr) {
    std::vector<std::string> refs;
    CollectRefs(expr, &refs);
    std::map<std::string, std::string> subst;
    for (const std::string& r : refs) {
      AVM_ASSIGN_OR_RETURN(subst[r], UseName(r));
    }
    return CloneSubst(expr, subst);
  }

  /// Maps feeding the aggregation/output must restrict to the final
  /// selection: an older (wider) selection would keep rows later filters
  /// removed.
  Status RequireCurrent(const std::string& sel, const char* where) const {
    if (sel != cur_sel) {
      return Status::InvalidArgument(
          StrFormat("%s uses values filtered before the last filter; "
                    "re-project after the final filter",
                    where));
    }
    return Status::OK();
  }
};

}  // namespace

Result<dsl::Program> internal::QuerySpec::Lower() const {
  using namespace dsl;
  const Schema& schema = table->schema();
  Program p;
  for (const std::string& c : columns) {
    p.data.push_back(
        {c, schema.field(static_cast<size_t>(schema.FieldIndex(c))).type,
         false});
  }
  for (size_t i = 0; i < dims.size(); ++i) {
    p.data.push_back({DimName(i), TypeId::kI64, false});
  }
  for (size_t i = 0; i < joins.size(); ++i) {
    if (joins[i].dense) {
      p.data.push_back({JoinMatchName(i), TypeId::kI64, false});
    } else {
      p.data.push_back({JoinBucketName(i), TypeId::kI64, false});
      p.data.push_back({JoinEntKeyName(i), TypeId::kI64, false});
      p.data.push_back({JoinEntRowName(i), TypeId::kI64, false});
    }
    for (size_t j = 0; j < joins[i].pays.size(); ++j) {
      p.data.push_back({JoinPayName(i, j), joins[i].pays[j].type, false});
    }
  }
  for (const Agg& a : aggs) {
    const bool f64 = a.kind == AggKind::kSumF64 || a.kind == AggKind::kAvgF64;
    p.data.push_back(
        {AccName(a.name), f64 ? TypeId::kF64 : TypeId::kI64, true});
    if (a.kind == AggKind::kAvgF64) {
      p.data.push_back({AvgCntName(a.name), TypeId::kI64, true});
    }
  }
  for (size_t i = 0; i < out_cols.size(); ++i) {
    p.data.push_back({OutName(out_cols[i]), out_types[i], true});
  }

  Lowering lo(*this);
  // Chunk reads; scanned columns are let-bound under the col_ prefix so
  // user expressions can be spliced in with a rename.
  for (const std::string& c : columns) {
    lo.Emit(Let(ColValue(c),
                Skeleton(SkeletonKind::kRead, {Var("i"), Var(c)})));
    lo.value_of[c] = ColValue(c);
    lo.value_sel[ColValue(c)] = "";
  }

  for (size_t si = 0; si < steps.size(); ++si) {
    const Step& s = steps[si];
    switch (s.kind) {
      case Step::Kind::kFilter: {
        std::vector<std::string> refs;
        CollectRefs(*s.expr, &refs);
        const std::string okay = StrFormat("okay%d", lo.gen);
        std::string single_sel;
        if (refs.size() == 1) {
          AVM_ASSIGN_OR_RETURN(single_sel, lo.SelOf(refs[0]));
        }
        if (refs.size() == 1 && lo.cur_sel.empty() && single_sel.empty()) {
          // Single positional input, no prior selection: direct filter.
          AVM_ASSIGN_OR_RETURN(std::string v, lo.UseName(refs[0]));
          lo.Emit(Let(
              okay,
              Skeleton(SkeletonKind::kFilter,
                       {Lambda({"x"}, CloneSubst(*s.expr, {{refs[0], "x"}})),
                        Var(v)})));
        } else {
          // Materialize the predicate (0/1), then select the non-zeros.
          const std::string pred = StrFormat("pred%d", lo.gen);
          std::string pred_sel;
          AVM_ASSIGN_OR_RETURN(ExprPtr renamed, lo.Rename(*s.expr));
          AVM_ASSIGN_OR_RETURN(
              ExprPtr pred_map,
              lo.LowerMap(*s.expr, Cast(TypeId::kI64, std::move(renamed)),
                          &pred_sel));
          // The predicate must see every row the pipeline still keeps: a
          // stale selection would silently drop earlier filters from the
          // conjunction.
          AVM_RETURN_NOT_OK(lo.RequireCurrent(pred_sel, "Filter predicate"));
          lo.Emit(Let(pred, std::move(pred_map)));
          lo.Emit(Let(
              okay, Skeleton(SkeletonKind::kFilter,
                             {Lambda({"x"}, Ne(Var("x"), ConstI(0))),
                              Var(pred)})));
        }
        lo.cur_sel = okay;
        ++lo.gen;
        break;
      }
      case Step::Kind::kProject: {
        std::string out_sel;
        AVM_ASSIGN_OR_RETURN(ExprPtr renamed, lo.Rename(*s.expr));
        AVM_ASSIGN_OR_RETURN(
            ExprPtr m, lo.LowerMap(*s.expr, std::move(renamed), &out_sel));
        lo.Emit(Let(s.name, std::move(m)));
        lo.value_of[s.name] = s.name;
        lo.value_sel[s.name] = out_sel;
        lo.proj_expr[s.name] = s.expr.get();
        break;
      }
      case Step::Kind::kSemiJoin: {
        // membership[key] != 0, with the key threaded through the current
        // selection; the membership array is shared (whole-array) so the
        // gather stays row-partitionable.
        AVM_ASSIGN_OR_RETURN(std::string key, lo.UseName(s.name));
        const std::string key_sel = lo.value_sel.at(key);
        if (!key_sel.empty() && key_sel != lo.cur_sel) {
          return Status::InvalidArgument(
              "SemiJoin key was filtered before the last filter; "
              "re-project it after the final filter");
        }
        if (!lo.cur_sel.empty() && key_sel.empty()) {
          const std::string keyed = StrFormat("key%d", lo.gen);
          lo.Emit(Let(
              keyed, Skeleton(SkeletonKind::kMap,
                              {Lambda({"k", "_sel"}, Var("k")), Var(key),
                               Var(lo.cur_sel)})));
          key = keyed;
        }
        const std::string mem = StrFormat("mem%d", lo.gen);
        const std::string okay = StrFormat("okay%d", lo.gen);
        lo.Emit(Let(mem, Skeleton(SkeletonKind::kGather,
                                  {Var(DimName(s.dim)), Var(key)})));
        lo.Emit(Let(
            okay, Skeleton(SkeletonKind::kFilter,
                           {Lambda({"x"}, Ne(Var("x"), ConstI(0))),
                            Var(mem)})));
        lo.cur_sel = okay;
        ++lo.gen;
        break;
      }
      case Step::Kind::kJoin: {
        const JoinDim& jd = joins[s.dim];
        AVM_ASSIGN_OR_RETURN(std::string pos_key, lo.PosName(s.name));
        if (!jd.dense) {
          // ---- CSR hash-table probe: fans out many-to-many. ----
          // Bucket per probe row (positional). ((h % B) + B) % B is total
          // for every i64 key — B is a positive power of two, so the DSL
          // mod's b==0/b==-1 guards never fire — and matches the
          // build-side bucket loop bit for bit.
          const int64_t b64 = static_cast<int64_t>(jd.num_buckets);
          ExprPtr bucket = Call(
              dsl::ScalarOp::kMod,
              {Call(dsl::ScalarOp::kMod,
                    {Call(dsl::ScalarOp::kHash, {Var("k")}), ConstI(b64)}) +
                   ConstI(b64),
               ConstI(b64)});
          const std::string jh = StrFormat("jh%d", lo.gen++);
          lo.Emit(Let(jh, Skeleton(SkeletonKind::kMap,
                                   {Lambda({"k"}, std::move(bucket)),
                                    Var(pos_key)})));
          lo.value_sel[jh] = "";
          // Thread the current selection so only surviving probe rows fan
          // out (expand iterates its counts' selection).
          std::string jhs = jh;
          if (!lo.cur_sel.empty()) {
            const std::string keyed = StrFormat("key%d", lo.gen++);
            lo.Emit(Let(keyed, Skeleton(SkeletonKind::kMap,
                                        {Lambda({"b", "_sel"}, Var("b")),
                                         Var(jh), Var(lo.cur_sel)})));
            lo.value_sel[keyed] = lo.cur_sel;
            jhs = keyed;
          }
          // Candidate count per probe row: bucket end - bucket start.
          const std::string jcs = StrFormat("jcs%d", lo.gen++);
          lo.Emit(Let(jcs, Skeleton(SkeletonKind::kGather,
                                    {Var(JoinBucketName(s.dim)), Var(jhs)})));
          const std::string jb1 = StrFormat("jh%d", lo.gen++);
          lo.Emit(Let(jb1, Skeleton(SkeletonKind::kMap,
                                    {Lambda({"b"}, Var("b") + ConstI(1)),
                                     Var(jhs)})));
          const std::string jce = StrFormat("jce%d", lo.gen++);
          lo.Emit(Let(jce, Skeleton(SkeletonKind::kGather,
                                    {Var(JoinBucketName(s.dim)), Var(jb1)})));
          const std::string jcn = StrFormat("jcn%d", lo.gen++);
          lo.Emit(Let(jcn, Skeleton(SkeletonKind::kMap,
                                    {Lambda({"e", "c"}, Var("e") - Var("c")),
                                     Var(jce), Var(jcs)})));
          lo.value_sel[jcn] = lo.cur_sel;

          // Every name any LATER step (or the aggregation/output stage)
          // still needs is rebased into the pair domain now: expand emits
          // cnt[i] copies of the positional probe-domain value, so pair j
          // sees exactly its probe row's value. The probe key doubles as
          // the match operand.
          std::set<std::string> needed;
          auto add_refs = [&needed](const dsl::Expr* e) {
            if (e == nullptr) return;
            std::vector<std::string> r;
            CollectRefs(*e, &r);
            needed.insert(r.begin(), r.end());
          };
          for (size_t t = si + 1; t < steps.size(); ++t) {
            add_refs(steps[t].expr.get());
            if (steps[t].kind == Step::Kind::kSemiJoin ||
                steps[t].kind == Step::Kind::kJoin) {
              needed.insert(steps[t].name);
            }
          }
          add_refs(group_expr.get());
          for (const Agg& a : aggs) add_refs(a.expr.get());
          needed.insert(out_cols.begin(), out_cols.end());

          const std::string jpk = StrFormat("jpk%d", lo.gen++);
          lo.Emit(Let(jpk, Skeleton(SkeletonKind::kExpand,
                                    {Var(jcn), Var(pos_key)})));
          std::vector<std::pair<std::string, std::string>> moved;
          moved.emplace_back(s.name, jpk);
          for (const std::string& nm : needed) {
            if (nm == s.name) continue;
            if (lo.value_of.find(nm) == lo.value_of.end() &&
                lo.payload_src.find(nm) == lo.payload_src.end()) {
              continue;  // defined by a later step; nothing to rebase yet
            }
            AVM_ASSIGN_OR_RETURN(std::string pv, lo.PosName(nm));
            const std::string rb = StrFormat("jrb%d", lo.gen++);
            lo.Emit(Let(rb, Skeleton(SkeletonKind::kExpand,
                                     {Var(jcn), Var(pv)})));
            moved.emplace_back(nm, rb);
          }

          // Candidate entry index per pair: bucket start + within-bucket
          // fan-out offset; its key and build row via bounds-checked
          // gathers (every candidate index lies inside the entry lists).
          const std::string jfo = StrFormat("jfo%d", lo.gen++);
          lo.Emit(Let(jfo, Skeleton(SkeletonKind::kExpand, {Var(jcn)})));
          const std::string jcsr = StrFormat("jcs%d", lo.gen++);
          lo.Emit(Let(jcsr, Skeleton(SkeletonKind::kExpand,
                                     {Var(jcn), Var(jcs)})));
          const std::string jca = StrFormat("jca%d", lo.gen++);
          lo.Emit(Let(jca, Skeleton(SkeletonKind::kMap,
                                    {Lambda({"c", "o"}, Var("c") + Var("o")),
                                     Var(jcsr), Var(jfo)})));
          const std::string jck = StrFormat("jck%d", lo.gen++);
          lo.Emit(Let(jck, Skeleton(SkeletonKind::kGather,
                                    {Var(JoinEntKeyName(s.dim)), Var(jca)})));
          const std::string jcr = StrFormat("jcr%d", lo.gen++);
          lo.Emit(Let(jcr, Skeleton(SkeletonKind::kGather,
                                    {Var(JoinEntRowName(s.dim)), Var(jca)})));

          // Domain switch: the loop now runs over (probe row, candidate)
          // pairs. Rebased values are positional in the new domain; the
          // caches of the old domain no longer apply.
          for (const auto& [nm, rb] : moved) {
            lo.value_of[nm] = rb;
            lo.value_sel[rb] = "";
            lo.payload_src.erase(nm);
          }
          lo.pos_cache.clear();
          lo.pay_cache.clear();
          for (const auto& [nm, rb] : moved) lo.pos_cache[nm] = rb;
          lo.value_sel[jfo] = "";
          lo.value_sel[jca] = "";
          lo.value_sel[jck] = "";
          lo.value_sel[jcr] = "";
          lo.rebased = true;
          lo.cur_sel.clear();

          // Keep the pairs whose candidate really matches the probe key
          // (bucket collisions carry other keys).
          const std::string mem = StrFormat("mem%d", lo.gen);
          const std::string okay = StrFormat("okay%d", lo.gen);
          lo.Emit(Let(
              mem, Skeleton(SkeletonKind::kMap,
                            {Lambda({"a", "b"},
                                    Cast(TypeId::kI64,
                                         Eq(Var("a"), Var("b")))),
                             Var(jck), Var(jpk)})));
          lo.Emit(Let(
              okay, Skeleton(SkeletonKind::kFilter,
                             {Lambda({"x"}, Ne(Var("x"), ConstI(0))),
                              Var(mem)})));
          lo.cur_sel = okay;
          ++lo.gen;

          // This join's payloads gather lazily from the build-row-major
          // arrays through the candidate-row index.
          for (size_t j = 0; j < jd.cols.size(); ++j) {
            lo.payload_src[jd.cols[j]] = {jcr, JoinPayName(s.dim, j)};
          }
          break;
        }
        // ---- Dense fast path (unique in-domain keys; at most one match).
        // Clamp the probe key into the dense domain POSITIONALLY (every
        // chunk row, independent of any selection): out-of-domain and
        // negative keys map to the guard slot, whose match flag is 0, so
        // absent keys drop rows instead of failing the bounds-checked
        // gather. The positional index vector is reused for every payload
        // gather, under whatever selection is current at use time.
        const int64_t guard = jd.max_key + 1;
        // guard + inb*(k - guard): the in-domain predicate is evaluated
        // once per row (this is the hottest expression a join adds).
        ExprPtr inb = Cast(TypeId::kI64, Var("k") >= ConstI(0)) *
                      Cast(TypeId::kI64, Var("k") <= ConstI(jd.max_key));
        ExprPtr clamp =
            ConstI(guard) + std::move(inb) * (Var("k") - ConstI(guard));
        const std::string jidx = StrFormat("jidx%d", lo.gen);
        lo.Emit(Let(jidx,
                    Skeleton(SkeletonKind::kMap,
                             {Lambda({"k"}, std::move(clamp)),
                              Var(pos_key)})));
        lo.value_sel[jidx] = "";

        // Probe: gather the match flags under the current selection and
        // keep the hits.
        std::string midx = jidx;
        if (!lo.cur_sel.empty()) {
          const std::string keyed = StrFormat("key%d", lo.gen);
          lo.Emit(Let(keyed,
                      Skeleton(SkeletonKind::kMap,
                               {Lambda({"k", "_sel"}, Var("k")), Var(jidx),
                                Var(lo.cur_sel)})));
          midx = keyed;
        }
        const std::string mem = StrFormat("mem%d", lo.gen);
        const std::string okay = StrFormat("okay%d", lo.gen);
        lo.Emit(Let(mem, Skeleton(SkeletonKind::kGather,
                                  {Var(JoinMatchName(s.dim)), Var(midx)})));
        lo.Emit(Let(
            okay, Skeleton(SkeletonKind::kFilter,
                           {Lambda({"x"}, Ne(Var("x"), ConstI(0))),
                            Var(mem)})));
        lo.cur_sel = okay;
        ++lo.gen;

        // Payload columns materialize lazily (Lowering::UseName): the
        // first post-join use gathers them under the then-current
        // selection, so they compose with later filters and projections.
        for (size_t j = 0; j < jd.cols.size(); ++j) {
          lo.payload_src[jd.cols[j]] = {jidx, JoinPayName(s.dim, j)};
        }
        break;
      }
    }
  }

  const std::string carrier =
      lo.cur_sel.empty() ? ColValue(columns[0]) : lo.cur_sel;

  if (!row_mode) {
    // Group index per surviving row.
    if (group_expr != nullptr) {
      std::string grp_sel;
      AVM_ASSIGN_OR_RETURN(ExprPtr renamed, lo.Rename(*group_expr));
      AVM_ASSIGN_OR_RETURN(
          ExprPtr grp_map,
          lo.LowerMap(*group_expr, Cast(TypeId::kI64, std::move(renamed)),
                      &grp_sel));
      AVM_RETURN_NOT_OK(lo.RequireCurrent(grp_sel, "Aggregate group"));
      lo.Emit(Let("grp", std::move(grp_map)));
    } else {
      lo.Emit(Let("grp", Skeleton(SkeletonKind::kMap,
                                  {Lambda({"_s"}, ConstI(0)),
                                   Var(carrier)})));
    }

    // Scatter-aggregate each Sum/Count into its accumulator; the group
    // index array carries the selection, so only surviving rows contribute
    // (the value arrays are read positionally at the selected positions).
    for (const Agg& a : aggs) {
      const bool f64 =
          a.kind == AggKind::kSumF64 || a.kind == AggKind::kAvgF64;
      std::string values;
      if (a.expr == nullptr) {
        values = StrFormat("cnt_%s", a.name.c_str());
        lo.Emit(Let(values, Skeleton(SkeletonKind::kMap,
                                     {Lambda({"_s"}, ConstI(1)),
                                      Var(carrier)})));
      } else {
        std::vector<std::string> refs;
        CollectRefs(*a.expr, &refs);
        if (!f64 && refs.size() == 1 &&
            a.expr->kind == dsl::ExprKind::kVarRef) {
          AVM_ASSIGN_OR_RETURN(values, lo.UseName(refs[0]));
        } else {
          values = StrFormat("sv_%s", a.name.c_str());
          AVM_ASSIGN_OR_RETURN(ExprPtr renamed, lo.Rename(*a.expr));
          if (f64) renamed = Cast(TypeId::kF64, std::move(renamed));
          AVM_ASSIGN_OR_RETURN(
              ExprPtr m, lo.LowerMap(*a.expr, std::move(renamed), nullptr));
          lo.Emit(Let(values, std::move(m)));
        }
      }
      lo.Emit(ExprStmt(Skeleton(
          SkeletonKind::kScatter,
          {Var(AccName(a.name)), Var("grp"), Var(values),
           Lambda({"o", "v"}, Var("o") + Var("v"))})));
      if (a.kind == AggKind::kAvgF64) {
        const std::string ones = StrFormat("cnt_%s", a.name.c_str());
        lo.Emit(Let(ones, Skeleton(SkeletonKind::kMap,
                                   {Lambda({"_s"}, ConstI(1)),
                                    Var(carrier)})));
        lo.Emit(ExprStmt(Skeleton(
            SkeletonKind::kScatter,
            {Var(AvgCntName(a.name)), Var("grp"), Var(ones),
             Lambda({"o", "v"}, Var("o") + Var("v"))})));
      }
    }
  } else {
    // Row materialization: each output value is restricted to the FINAL
    // selection and appended to its per-morsel output window at position
    // `onum` — the write skeleton condenses the selection away, and its
    // return value advances the cursor. The engine gives every morsel its
    // own window; the Query's task hook reads `onum` back and partial-sorts
    // the window, and its finalize hook merges the runs at the barrier.
    std::string wrote;
    for (size_t i = 0; i < out_cols.size(); ++i) {
      const std::string& name = out_cols[i];
      AVM_ASSIGN_OR_RETURN(std::string v, lo.UseName(name));
      const std::string vsel = lo.value_sel.at(v);
      if (vsel.empty() && !lo.cur_sel.empty()) {
        const std::string ov = StrFormat("ov%d", lo.gen++);
        lo.Emit(Let(ov, Skeleton(SkeletonKind::kMap,
                                 {Lambda({"x", "_sel"}, Var("x")), Var(v),
                                  Var(lo.cur_sel)})));
        v = ov;
      } else {
        AVM_RETURN_NOT_OK(lo.RequireCurrent(
            vsel, StrFormat("Output '%s'", name.c_str()).c_str()));
      }
      const std::string ow = StrFormat("ow%d", lo.gen++);
      lo.Emit(Let(ow, Skeleton(SkeletonKind::kWrite,
                               {Var(OutName(name)), Var("onum"), Var(v)})));
      if (wrote.empty()) wrote = ow;
    }
    lo.Emit(Assign("onum", Var("onum") + Var(wrote)));
  }

  lo.Emit(Assign(
      "i", Var("i") + Skeleton(SkeletonKind::kLen,
                               {Var(ColValue(columns[0]))})));
  lo.Emit(If(Var("i") >= Skeleton(SkeletonKind::kLen, {Var(columns[0])}),
             {Break()}));

  p.stmts = {MutDef("i"), Assign("i", ConstI(0))};
  if (row_mode) {
    p.stmts.push_back(MutDef("onum"));
    p.stmts.push_back(Assign("onum", ConstI(0)));
  }
  p.stmts.push_back(Loop(std::move(lo.body)));
  p.AssignIds();
  return p;
}

// ------------------------------------------------------------------- query

struct Query::Impl {
  std::shared_ptr<const internal::QuerySpec> spec;

  /// Result storage per aggregate (parallel to spec->aggs): i64 or f64
  /// accumulator, the AvgF64 hidden count, and the finalized averages.
  struct AggSlot {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int64_t> cnt;
    std::vector<double> fin;
  };
  std::vector<AggSlot> aggs;

  /// Row mode with resident windows: one window buffer per output column
  /// (parallel to spec->out_cols); morsel m owns rows [m.begin, m.end) x
  /// fan_out of each window.
  std::vector<std::vector<uint8_t>> windows;
  /// One sorted run per morsel that produced rows, recorded by the task
  /// hooks under run_mu and read by the finalize hook after the barrier;
  /// dropped by OnCleanup, so every submission merges only its own runs.
  struct Run {
    size_t morsel = 0;
    uint64_t rows = 0;
    uint64_t begin = 0;      ///< resident: first window row
    uint64_t spill_run = 0;  ///< spilled: run index in the SpillFile
    /// Ordered output: min(kRunSamples, rows) ORDER BY keys, sample j taken
    /// from run row SampleRow(j, ...), as raw key bytes.
    std::vector<uint8_t> samples;
  };
  std::vector<Run> runs;
  /// Serializes the task hooks' run records, spill appends and spill
  /// counters; the sorts before them run concurrently.
  std::mutex run_mu;

  /// Barrier-merged result rows.
  std::vector<Query::ResultColumn> result;
  uint64_t result_rows = 0;
  /// The columns ResetAggregates dropped, whose buffers the next finalize
  /// reuses: a re-submitted query then writes its result into the same
  /// memory instead of churning multi-MiB buffers through the malloc arena
  /// of whichever worker finalizes.
  std::vector<Query::ResultColumn> spare;

  ExecContext ctx;

  // --- out-of-core state (docs/SPILL.md) ---------------------------------
  /// Tracker of the current submission; set by OnPrepare, never null after.
  std::shared_ptr<MemoryTracker> tracker;
  /// Persistent bytes OnPrepare charged (side tables + resident windows);
  /// released by OnCleanup.
  uint64_t persistent_charge = 0;
  /// Whether the current submission runs with per-task scratch windows
  /// whose sorted runs are sealed to disk.
  bool spill_mode = false;
  /// The current submission's worker count (at least 1), which caps the
  /// merge's parts.
  size_t workers = 1;
  /// Lazily created by the first spilled run; closed (unlinked) by
  /// OnCleanup.
  std::unique_ptr<storage::SpillFile> spill;

  Impl(std::shared_ptr<const internal::QuerySpec> s, dsl::Program program)
      : spec(std::move(s)), ctx(std::move(program)) {}
  ~Impl() { OnCleanup(); }

  Status OnPrepare(const MemoryPlan& plan, PrepareOutcome* out);
  void OnCleanup();
  Status OnTask(const interp::Interpreter& in, const Morsel& m);
  Status Finalize(const ExecContext::ParallelFor& parallel_for);
  Status FinalizeRows(const ExecContext::ParallelFor& parallel_for);
  /// Fills cuts[p][i], the first row of run i that merge part p emits, for
  /// p in [1, parts); cuts[0] and cuts[parts] are preset to 0 and the run
  /// lengths.
  Status CutRuns(std::vector<std::vector<uint64_t>>& cuts) const;
  template <typename T>
  Status CutRunsByKey(std::vector<std::vector<uint64_t>>& cuts) const;
  /// Merges, from each run i, rows [lo[i], hi[i]) into the result rows
  /// that start at the sum of `lo`; spilled runs buffer `chunk_rows` rows.
  Status MergePart(const std::vector<uint64_t>& lo,
                   const std::vector<uint64_t>& hi, uint64_t chunk_rows);
  Status FinalizeAggMode();
  void ResetResult(const std::vector<std::string>& names,
                   const std::vector<TypeId>& types, uint64_t rows);
};

Status Query::Impl::OnTask(const interp::Interpreter& in, const Morsel& m) {
  AVM_ASSIGN_OR_RETURN(interp::ScalarValue n, in.GetScalar("onum"));
  const int64_t count = n.AsI64();
  // This morsel's window spans [begin, end) x fan_out rows.
  const uint64_t limit = m.rows() * spec->fan_out;
  if (count < 0 || static_cast<uint64_t>(count) > limit) {
    return Status::Internal(
        StrFormat("morsel output count %lld out of range [0, %llu]",
                  (long long)count, (unsigned long long)limit));
  }
  if (count == 0) return Status::OK();
  const auto rows = static_cast<uint64_t>(count);
  // The task's output window as bound to its interpreter: the resident
  // window slice, or the spill-mode scratch window.
  std::vector<uint8_t*> bases(spec->out_cols.size());
  for (size_t c = 0; c < bases.size(); ++c) {
    const interp::DataBinding* b =
        in.FindBinding(Spec::OutName(spec->out_cols[c]));
    if (b == nullptr || b->raw == nullptr) {
      return Status::Internal("output window missing for column " +
                              spec->out_cols[c]);
    }
    bases[c] = static_cast<uint8_t*>(b->raw);
  }
  // The window is this task's alone, so it sorts without a lock, on the
  // task's own worker.
  Run run{m.index, rows, m.begin * spec->fan_out, 0, {}};
  if (spec->has_order) {
    const size_t key = spec->order_key_index;
    SortRows(spec->out_types, bases, key, spec->order_dir, rows);
    const size_t width = TypeWidth(spec->out_types[key]);
    const uint64_t samples = std::min(kRunSamples, rows);
    run.samples.resize(samples * width);
    for (uint64_t j = 0; j < samples; ++j) {
      std::memcpy(&run.samples[j * width],
                  bases[key] + SampleRow(j, samples, rows) * width, width);
    }
  }
  std::lock_guard<std::mutex> lock(run_mu);
  if (spill_mode) {
    // Append the sorted scratch window to the spill file as one run.
    if (spill == nullptr) {
      AVM_ASSIGN_OR_RETURN(spill,
                           storage::SpillFile::Create(spec->out_types));
    }
    AVM_ASSIGN_OR_RETURN(
        run.spill_run,
        spill->AppendRun(m.index, rows, {bases.begin(), bases.end()}));
    ctx.spill_stats().spill_runs += 1;
    ctx.spill_stats().bytes_spilled = spill->bytes_written();
  }
  runs.push_back(std::move(run));
  return Status::OK();
}

Status Query::Impl::Finalize(const ExecContext::ParallelFor& parallel_for) {
  return spec->row_mode ? FinalizeRows(parallel_for) : FinalizeAggMode();
}

Status Query::Impl::FinalizeRows(const ExecContext::ParallelFor& parallel_for) {
  // Morsel order, not completion order: the merge gives ties to the
  // earlier run, so the result is the same at any worker count.
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.morsel < b.morsel; });
  uint64_t total = 0;
  for (const Run& r : runs) total += r.rows;
  const std::vector<TypeId>& types = spec->out_types;
  ResetResult(spec->out_cols, types, total);
  const uint64_t parts =
      std::clamp<uint64_t>(total / kMinMergePartRows, 1, workers);
  ctx.spill_stats().merge_parts = parts;
  if (total == 0) return Status::OK();

  uint64_t row_bytes = 0;
  for (TypeId t : types) row_bytes += TypeWidth(t);
  if (spill_mode) {
    if (spill == nullptr) {
      return Status::Internal("spilled query finalized without a spill file");
    }
    AVM_RETURN_NOT_OK(spill->Seal());
    AVM_RETURN_NOT_OK(spill->ValidateChecksums());
  }
  // Spilled runs stream through bounded read buffers (runs x chunk rows,
  // split across the parts): task-style scratch, so it is charged
  // transiently.
  ScopedTransientCharge merge_charge(
      tracker.get(),
      spill_mode ? kMergeChunkRows * row_bytes * runs.size() : 0);
  // cuts[p][i]: first row of run i that part p merges. Every part writes
  // its own slice of the one result buffer, so the parts run concurrently.
  std::vector<std::vector<uint64_t>> cuts(parts + 1,
                                          std::vector<uint64_t>(runs.size()));
  for (size_t i = 0; i < runs.size(); ++i) cuts[parts][i] = runs[i].rows;
  AVM_RETURN_NOT_OK(CutRuns(cuts));
  const uint64_t chunk_rows = std::max<uint64_t>(kMergeChunkRows / parts, 1);
  std::vector<Status> part_status(parts);
  parallel_for(parts, [&](size_t p) {
    part_status[p] = MergePart(cuts[p], cuts[p + 1], chunk_rows);
  });
  for (const Status& st : part_status) AVM_RETURN_NOT_OK(st);
  return Status::OK();
}

Status Query::Impl::CutRuns(std::vector<std::vector<uint64_t>>& cuts) const {
  const size_t parts = cuts.size() - 1;
  if (spec->has_order) {
    return DispatchType(spec->out_types[spec->order_key_index],
                        [&]<typename T>() { return CutRunsByKey<T>(cuts); });
  }
  // Unordered output is the runs concatenated in morsel order: part p
  // takes the rows [total * p / parts, total * (p + 1) / parts) of it.
  uint64_t total = 0;
  for (const Run& r : runs) total += r.rows;
  for (size_t p = 1; p < parts; ++p) {
    const uint64_t at = total * p / parts;
    uint64_t run_begin = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      cuts[p][i] = std::clamp(at, run_begin, run_begin + runs[i].rows) -
                   run_begin;
      run_begin += runs[i].rows;
    }
  }
  return Status::OK();
}

template <typename T>
Status Query::Impl::CutRunsByKey(
    std::vector<std::vector<uint64_t>>& cuts) const {
  // Splitters: every (samples / parts)-th of the pooled run samples in
  // KeyBefore order. A run's cut is the splitter's lower bound in it, so
  // rows with equivalent keys (every NaN; -0.0 and +0.0) land in one part,
  // rows of part p sort before those of part p + 1, and merging each part
  // stably writes exactly its slice of the global stable sort. Skewed keys
  // only make parts uneven; equal splitters leave a part empty.
  const SortDir dir = spec->order_dir;
  std::vector<T> pooled;
  for (const Run& r : runs) {
    for (uint64_t j = 0; j < r.samples.size() / sizeof(T); ++j) {
      pooled.push_back(LoadKey<T>(r.samples.data(), j));
    }
  }
  std::sort(pooled.begin(), pooled.end(),
            [dir](T a, T b) { return KeyBefore(a, b, dir); });
  const size_t parts = cuts.size() - 1;
  const size_t key = spec->order_key_index;
  std::vector<uint8_t> keys;  // a spilled run's bracketed keys
  for (size_t p = 1; p < parts; ++p) {
    const T splitter = pooled[p * pooled.size() / parts];
    for (size_t i = 0; i < runs.size(); ++i) {
      // The run's samples bracket the lower bound between two sampled
      // rows; only the keys in between are read (one chunk read of a
      // spilled run).
      const Run& r = runs[i];
      const uint64_t ns = r.samples.size() / sizeof(T);
      const uint64_t j =
          LowerBound(0, ns, splitter, dir, [&](uint64_t x) {
            return LoadKey<T>(r.samples.data(), x);
          });
      const uint64_t lo = j == 0 ? 0 : SampleRow(j - 1, ns, r.rows) + 1;
      const uint64_t hi = j == ns ? r.rows : SampleRow(j, ns, r.rows);
      const uint8_t* bracket =
          spill_mode ? nullptr
                     : windows[key].data() + (r.begin + lo) * sizeof(T);
      if (spill_mode) {
        keys.resize((hi - lo) * sizeof(T));
        if (hi > lo) {
          AVM_RETURN_NOT_OK(spill->ReadRunChunk(r.spill_run, key, lo,
                                                hi - lo, keys.data()));
        }
        bracket = keys.data();
      }
      cuts[p][i] = lo + LowerBound(0, hi - lo, splitter, dir, [&](uint64_t x) {
                     return LoadKey<T>(bracket, x);
                   });
    }
  }
  return Status::OK();
}

Status Query::Impl::MergePart(const std::vector<uint64_t>& lo,
                              const std::vector<uint64_t>& hi,
                              uint64_t chunk_rows) {
  const std::vector<TypeId>& types = spec->out_types;
  std::vector<size_t> widths(types.size());
  for (size_t c = 0; c < types.size(); ++c) widths[c] = TypeWidth(types[c]);
  uint64_t first_row = 0;
  std::vector<RunCursor> cur(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    first_row += lo[i];
    RunCursor& rc = cur[i];
    rc.next = lo[i];
    rc.end = hi[i];
    rc.cols.resize(types.size());
    if (spill_mode) {
      rc.file = spill.get();
      rc.spill_run = runs[i].spill_run;
      rc.chunk_rows = chunk_rows;
      if (!rc.done()) AVM_RETURN_NOT_OK(rc.Refill());
    } else {
      rc.buf_len = runs[i].rows;
      for (size_t c = 0; c < types.size(); ++c) {
        rc.cols[c] = windows[c].data() + runs[i].begin * widths[c];
      }
    }
  }
  std::vector<uint8_t*> out(types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    out[c] = result[c].data.data() + first_row * widths[c];
  }

  if (!spec->has_order) {
    return MergeRuns(
        cur, [](const RunCursor&) { return uint8_t{0}; },
        [](uint8_t, uint8_t) { return false; }, out, widths);
  }
  const size_t key = spec->order_key_index;
  const SortDir dir = spec->order_dir;
  return DispatchType(types[key], [&]<typename T>() {
    return MergeRuns(
        cur, [key](const RunCursor& rc) { return rc.Key<T>(key); },
        [dir](T a, T b) { return KeyBefore(a, b, dir); }, out, widths);
  });
}

Status Query::Impl::OnPrepare(const MemoryPlan& plan, PrepareOutcome* out) {
  OnCleanup();  // re-submission: drop the previous charges, runs, spill file
  tracker = plan.tracker;
  spill_mode = false;
  workers = std::max<size_t>(plan.workers, 1);

  const Spec& s = *spec;
  // Persistent side tables: semijoin dims, join lookup structures and
  // payload copies, aggregate slots — resident for the whole query.
  uint64_t side = 0;
  for (const auto& d : s.dims) side += d.size() * sizeof(int64_t);
  for (const Spec::JoinDim& jd : s.joins) {
    side += (jd.match.size() + jd.bkt_start.size() + jd.ent_key.size() +
             jd.ent_row.size()) *
            sizeof(int64_t);
    for (const auto& p : jd.pays) side += p.data.size();
  }
  for (const AggSlot& a : aggs) {
    side += (a.i64.size() + a.cnt.size()) * sizeof(int64_t) +
            (a.f64.size() + a.fin.size()) * sizeof(double);
  }
  if (side > 0) {
    AVM_RETURN_NOT_OK(tracker->TryCharge(side, "query side tables"));
    persistent_charge += side;
  }
  if (!s.row_mode) return Status::OK();

  // Row mode: prefer keeping the full output windows resident.
  uint64_t width_sum = 0;
  for (TypeId t : s.out_types) width_sum += TypeWidth(t);
  const uint64_t wrows = s.table->num_rows() * s.fan_out;
  const uint64_t window_bytes = std::max<uint64_t>(wrows, 1) * width_sum;
  Status st = tracker->TryCharge(window_bytes, "ORDER BY output windows");
  if (st.ok()) {
    persistent_charge += window_bytes;
    windows.resize(s.out_cols.size());
    for (size_t i = 0; i < s.out_cols.size(); ++i) {
      // At least one element: an empty table still binds a non-null window
      // (zero-count writes are no-ops, but need a valid writable array).
      // Not cleared: nothing reads a window past a morsel's output count,
      // so a re-submission reuses the rows as they are.
      windows[i].resize(std::max<uint64_t>(wrows, 1) *
                        TypeWidth(s.out_types[i]));
      ctx.BindPartialOutput(
          Spec::OutName(s.out_cols[i]),
          interp::DataBinding::Raw(s.out_types[i], windows[i].data(), wrows,
                                   true),
          s.fan_out);
    }
    return Status::OK();
  }
  if (st.code() != StatusCode::kResourceExhausted) return st;

  // Spill mode: per-task scratch windows, sorted runs sealed to disk. Cap
  // morsels so the concurrent workers' scratch fits in what remains of the
  // budget, floor-aligned to the chunk size (PartitionRows rounds morsels
  // UP to chunk alignment, so a floor-aligned cap stays within budget).
  const uint64_t per_input_row = std::max<uint64_t>(width_sum * s.fan_out, 1);
  const uint32_t chunk = std::max<uint32_t>(plan.chunk_size, 1);
  // The viability check is against the BUDGET, not currently-available
  // bytes: a budget that cannot hold even one chunk-sized morsel window is
  // a deterministic, client-visible configuration error, while transient
  // pressure from concurrent queries merely degrades the morsel size below
  // (scratch is a transient charge with documented bounded overshoot, so
  // it must never turn into a spurious failure).
  if (static_cast<uint64_t>(chunk) * per_input_row > tracker->budget()) {
    return Status::ResourceExhausted(StrFormat(
        "memory budget %llu too small for out-of-core ORDER BY: one "
        "%u-row morsel window needs %llu bytes",
        (unsigned long long)tracker->budget(), (unsigned)chunk,
        (unsigned long long)(static_cast<uint64_t>(chunk) * per_input_row)));
  }
  uint64_t cap = tracker->available() / workers / per_input_row;
  cap -= cap % chunk;
  if (cap == 0) cap = chunk;
  // Drop any resident windows a previous in-memory submission left.
  windows.clear();
  for (size_t i = 0; i < s.out_cols.size(); ++i) {
    ctx.BindPartialOutputScratch(Spec::OutName(s.out_cols[i]),
                                 s.out_types[i], s.fan_out);
  }
  spill_mode = true;
  out->max_morsel_rows = cap;
  return Status::OK();
}

void Query::Impl::OnCleanup() {
  // A failed or cancelled submission never reaches the merge; its runs
  // must not leak into the next submission's.
  runs.clear();
  if (spill != nullptr) {
    spill->Close();
    spill.reset();
  }
  if (tracker != nullptr && persistent_charge > 0) {
    tracker->Release(persistent_charge);
  }
  persistent_charge = 0;
}

Status Query::Impl::FinalizeAggMode() {
  using AggKind = internal::QuerySpec::AggKind;
  const size_t groups = spec->num_groups;
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (spec->aggs[a].kind != AggKind::kAvgF64) continue;
    for (size_t g = 0; g < groups; ++g) {
      aggs[a].fin[g] =
          aggs[a].cnt[g] != 0
              ? aggs[a].f64[g] / static_cast<double>(aggs[a].cnt[g])
              : 0.0;
    }
  }
  if (!spec->has_order) return Status::OK();

  // Materialize the group rows in group order, "group" plus one column per
  // aggregate (finalized averages for AvgF64), then sort them like row
  // output; ORDER BY "group" sorts on a unique key.
  std::vector<int64_t> ids(groups);
  std::iota(ids.begin(), ids.end(), int64_t{0});
  std::vector<std::string> names = {"group"};
  std::vector<TypeId> types = {TypeId::kI64};
  std::vector<const void*> values = {ids.data()};
  size_t key = 0;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const internal::QuerySpec::Agg& sa = spec->aggs[a];
    if (sa.name == spec->order_by) key = names.size();
    names.push_back(sa.name);
    switch (sa.kind) {
      case AggKind::kSum:
      case AggKind::kCount:
        types.push_back(TypeId::kI64);
        values.push_back(aggs[a].i64.data());
        break;
      case AggKind::kSumF64:
        types.push_back(TypeId::kF64);
        values.push_back(aggs[a].f64.data());
        break;
      case AggKind::kAvgF64:
        types.push_back(TypeId::kF64);
        values.push_back(aggs[a].fin.data());
        break;
    }
  }
  ResetResult(names, types, groups);
  std::vector<uint8_t*> bases;
  for (size_t c = 0; c < result.size(); ++c) {
    std::memcpy(result[c].data.data(), values[c], result[c].data.size());
    bases.push_back(result[c].data.data());
  }
  SortRows(types, bases, key, spec->order_dir, groups);
  return Status::OK();
}

void Query::Impl::ResetResult(const std::vector<std::string>& names,
                              const std::vector<TypeId>& types,
                              uint64_t rows) {
  if (result.empty()) result = std::move(spare);
  result.resize(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    result[c].name = names[c];
    result[c].type = types[c];
    // Every row is written by the merge or the group copy; a reused
    // buffer keeps its bytes until then.
    result[c].data.resize(rows * TypeWidth(types[c]));
  }
  result_rows = rows;
}

Query::Query() = default;
Query::Query(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Query::Query(Query&&) noexcept = default;
Query& Query::operator=(Query&&) noexcept = default;
Query::~Query() = default;

namespace {
/// Empty (default-constructed or moved-from) queries fail loudly instead
/// of dereferencing null.
void CheckBuilt(const void* impl) {
  if (impl == nullptr) {
    Status::InvalidArgument("Query is empty (not built, or moved-from)")
        .Abort("Query");
  }
}
}  // namespace

ExecContext& Query::context() {
  CheckBuilt(impl_.get());
  return impl_->ctx;
}

Result<dsl::Program> Query::MakeProgram(int64_t /*rows*/) const {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("Query is empty (not built)");
  }
  return impl_->spec->Lower();
}

size_t Query::num_groups() const {
  CheckBuilt(impl_.get());
  return impl_->spec->num_groups;
}

const std::vector<int64_t>& Query::aggregate(const std::string& name) const {
  CheckBuilt(impl_.get());
  using AggKind = internal::QuerySpec::AggKind;
  for (size_t a = 0; a < impl_->aggs.size(); ++a) {
    if (impl_->spec->aggs[a].name != name) continue;
    const AggKind k = impl_->spec->aggs[a].kind;
    if (k == AggKind::kSumF64 || k == AggKind::kAvgF64) {
      Status::InvalidArgument("aggregate " + name +
                              " is floating-point; use aggregate_f64")
          .Abort("Query");
    }
    return impl_->aggs[a].i64;
  }
  Status::InvalidArgument("no aggregate named " + name).Abort("Query");
  static const std::vector<int64_t> kEmpty;
  return kEmpty;
}

const std::vector<double>& Query::aggregate_f64(
    const std::string& name) const {
  CheckBuilt(impl_.get());
  using AggKind = internal::QuerySpec::AggKind;
  for (size_t a = 0; a < impl_->aggs.size(); ++a) {
    if (impl_->spec->aggs[a].name != name) continue;
    switch (impl_->spec->aggs[a].kind) {
      case AggKind::kSumF64:
        return impl_->aggs[a].f64;
      case AggKind::kAvgF64:
        return impl_->aggs[a].fin;
      default:
        Status::InvalidArgument("aggregate " + name +
                                " is integer; use aggregate()")
            .Abort("Query");
    }
  }
  Status::InvalidArgument("no aggregate named " + name).Abort("Query");
  static const std::vector<double> kEmpty;
  return kEmpty;
}

uint64_t Query::num_result_rows() const {
  CheckBuilt(impl_.get());
  return impl_->result_rows;
}

const std::vector<Query::ResultColumn>& Query::result_columns() const {
  CheckBuilt(impl_.get());
  return impl_->result;
}

const Query::ResultColumn& Query::result_column(
    const std::string& name) const {
  CheckBuilt(impl_.get());
  for (const ResultColumn& c : impl_->result) {
    if (c.name == name) return c;
  }
  Status::InvalidArgument("no result column named " + name).Abort("Query");
  static const ResultColumn kEmpty;
  return kEmpty;
}

void Query::ResetAggregates() {
  CheckBuilt(impl_.get());
  for (Impl::AggSlot& a : impl_->aggs) {
    std::fill(a.i64.begin(), a.i64.end(), 0);
    std::fill(a.f64.begin(), a.f64.end(), 0.0);
    std::fill(a.cnt.begin(), a.cnt.end(), 0);
    std::fill(a.fin.begin(), a.fin.end(), 0.0);
  }
  impl_->runs.clear();
  impl_->spare = std::move(impl_->result);
  impl_->result.clear();
  impl_->result_rows = 0;
}

// ----------------------------------------------------------------- builder

QueryBuilder::QueryBuilder(const Table& table)
    : spec_(std::make_shared<Spec>()) {
  spec_->table = &table;
}

QueryBuilder::~QueryBuilder() = default;

Status QueryBuilder::Fail(Status st) {
  if (deferred_error_.ok()) deferred_error_ = std::move(st);
  return deferred_error_;
}

internal::QuerySpec& QueryBuilder::MutableSpec() {
  // Copy-on-write: after Build() the spec is shared with the built Query,
  // so the next mutating call — or the next Build(), whose Resolve()
  // rewrites derived state — forks it. The single-Build common case never
  // pays the copy.
  if (spec_.use_count() > 1) {
    spec_ = std::make_shared<Spec>(*spec_);
    // Drop the fork's copy of the densified join lookup arrays (they can
    // be ~128 MiB per join and belong to the built Query's spec); the next
    // Resolve() re-densifies from the build table — deliberately, since
    // its contents may have changed between Builds.
    for (Spec::JoinDim& jd : spec_->joins) {
      jd.match = {};
      jd.pays = {};
      jd.bkt_start = {};
      jd.ent_key = {};
      jd.ent_row = {};
    }
  }
  return *spec_;
}

QueryBuilder& QueryBuilder::Filter(dsl::ExprPtr predicate) {
  if (predicate == nullptr) {
    Fail(Status::InvalidArgument("Filter: null predicate"));
    return *this;
  }
  MutableSpec().steps.push_back(
      {Spec::Step::Kind::kFilter, "", std::move(predicate), 0});
  return *this;
}

QueryBuilder& QueryBuilder::Project(const std::string& name,
                                    dsl::ExprPtr expr) {
  if (expr == nullptr) {
    Fail(Status::InvalidArgument("Project: null expression"));
    return *this;
  }
  MutableSpec().steps.push_back(
      {Spec::Step::Kind::kProject, name, std::move(expr), 0});
  return *this;
}

QueryBuilder& QueryBuilder::SemiJoin(const std::string& key,
                                     std::vector<int64_t> membership) {
  Spec& spec = MutableSpec();
  spec.dims.push_back(std::move(membership));
  spec.steps.push_back(
      {Spec::Step::Kind::kSemiJoin, key, nullptr, spec.dims.size() - 1});
  return *this;
}

QueryBuilder& QueryBuilder::Join(const Table& build,
                                 const std::string& probe_key,
                                 const std::string& build_key,
                                 std::vector<std::string> payload) {
  Spec& spec = MutableSpec();
  Spec::JoinDim jd;
  jd.build = &build;
  jd.build_key = build_key;
  jd.payload = std::move(payload);
  spec.joins.push_back(std::move(jd));
  spec.steps.push_back(
      {Spec::Step::Kind::kJoin, probe_key, nullptr, spec.joins.size() - 1});
  return *this;
}

QueryBuilder& QueryBuilder::SetJoinStrategy(JoinStrategy strategy) {
  MutableSpec().join_strategy = strategy;
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(dsl::ExprPtr group_expr,
                                      size_t num_groups) {
  if (group_expr == nullptr || num_groups == 0) {
    Fail(Status::InvalidArgument(
        "Aggregate: need a group expression and num_groups >= 1"));
    return *this;
  }
  Spec& spec = MutableSpec();
  spec.group_expr = std::move(group_expr);
  spec.num_groups = num_groups;
  return *this;
}

QueryBuilder& QueryBuilder::Sum(const std::string& name, dsl::ExprPtr expr) {
  if (expr == nullptr) {
    Fail(Status::InvalidArgument("Sum: null expression"));
    return *this;
  }
  MutableSpec().aggs.push_back(
      {name, Spec::AggKind::kSum, std::move(expr)});
  return *this;
}

QueryBuilder& QueryBuilder::SumF64(const std::string& name,
                                   dsl::ExprPtr expr) {
  if (expr == nullptr) {
    Fail(Status::InvalidArgument("SumF64: null expression"));
    return *this;
  }
  MutableSpec().aggs.push_back(
      {name, Spec::AggKind::kSumF64, std::move(expr)});
  return *this;
}

QueryBuilder& QueryBuilder::AvgF64(const std::string& name,
                                   dsl::ExprPtr expr) {
  if (expr == nullptr) {
    Fail(Status::InvalidArgument("AvgF64: null expression"));
    return *this;
  }
  MutableSpec().aggs.push_back(
      {name, Spec::AggKind::kAvgF64, std::move(expr)});
  return *this;
}

QueryBuilder& QueryBuilder::Count(const std::string& name) {
  MutableSpec().aggs.push_back({name, Spec::AggKind::kCount, nullptr});
  return *this;
}

QueryBuilder& QueryBuilder::Output(const std::string& name) {
  MutableSpec().outputs.push_back(name);
  return *this;
}

QueryBuilder& QueryBuilder::OrderBy(const std::string& key, SortDir dir) {
  Spec& spec = MutableSpec();
  if (spec.has_order) {
    Fail(Status::InvalidArgument("OrderBy may only be called once"));
    return *this;
  }
  spec.has_order = true;
  spec.order_by = key;
  spec.order_dir = dir;
  return *this;
}

Result<Query> QueryBuilder::Build() {
  AVM_RETURN_NOT_OK(deferred_error_);
  // Resolve() mutates derived state, so it must not touch a spec some
  // earlier Build() handed out.
  AVM_RETURN_NOT_OK(MutableSpec().Resolve());

  // Lower and type-check the query's one program here, so shape and type
  // errors surface at Build time instead of from a worker thread
  // mid-query; the context runs this program on every submission.
  AVM_ASSIGN_OR_RETURN(dsl::Program program, spec_->Lower());
  AVM_RETURN_NOT_OK(dsl::TypeCheck(&program));
  spec_->FixOutputTypes(&program);

  auto impl = std::make_unique<Query::Impl>(spec_, std::move(program));
  const Spec& spec = *impl->spec;
  for (size_t i = 0; i < spec.columns.size(); ++i) {
    impl->ctx.BindInputColumn(spec.columns[i], spec.column_ptrs[i]);
  }
  for (size_t i = 0; i < spec.dims.size(); ++i) {
    impl->ctx.BindShared(
        spec.DimName(i),
        interp::DataBinding::Raw(
            TypeId::kI64,
            const_cast<int64_t*>(spec.dims[i].data()), spec.dims[i].size()));
  }
  for (size_t i = 0; i < spec.joins.size(); ++i) {
    const Spec::JoinDim& jd = spec.joins[i];
    if (jd.dense) {
      impl->ctx.BindShared(
          spec.JoinMatchName(i),
          interp::DataBinding::Raw(TypeId::kI64,
                                   const_cast<int64_t*>(jd.match.data()),
                                   jd.match.size()));
    } else {
      impl->ctx.BindShared(
          spec.JoinBucketName(i),
          interp::DataBinding::Raw(TypeId::kI64,
                                   const_cast<int64_t*>(jd.bkt_start.data()),
                                   jd.bkt_start.size()));
      impl->ctx.BindShared(
          spec.JoinEntKeyName(i),
          interp::DataBinding::Raw(TypeId::kI64,
                                   const_cast<int64_t*>(jd.ent_key.data()),
                                   jd.ent_key.size()));
      impl->ctx.BindShared(
          spec.JoinEntRowName(i),
          interp::DataBinding::Raw(TypeId::kI64,
                                   const_cast<int64_t*>(jd.ent_row.data()),
                                   jd.ent_row.size()));
    }
    for (size_t j = 0; j < jd.pays.size(); ++j) {
      impl->ctx.BindShared(
          spec.JoinPayName(i, j),
          interp::DataBinding::Raw(
              jd.pays[j].type, const_cast<uint8_t*>(jd.pays[j].data.data()),
              jd.pays[j].data.size() / TypeWidth(jd.pays[j].type)));
    }
  }
  impl->aggs.resize(spec.aggs.size());
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    const Spec::Agg& sa = spec.aggs[a];
    Query::Impl::AggSlot& slot = impl->aggs[a];
    switch (sa.kind) {
      case Spec::AggKind::kSum:
      case Spec::AggKind::kCount:
        slot.i64.assign(spec.num_groups, 0);
        impl->ctx.BindAccumulator(Spec::AccName(sa.name), TypeId::kI64,
                                  slot.i64.data(), spec.num_groups);
        break;
      case Spec::AggKind::kSumF64:
        slot.f64.assign(spec.num_groups, 0.0);
        impl->ctx.BindAccumulator(Spec::AccName(sa.name), TypeId::kF64,
                                  slot.f64.data(), spec.num_groups);
        break;
      case Spec::AggKind::kAvgF64:
        slot.f64.assign(spec.num_groups, 0.0);
        slot.cnt.assign(spec.num_groups, 0);
        slot.fin.assign(spec.num_groups, 0.0);
        impl->ctx.BindAccumulator(Spec::AccName(sa.name), TypeId::kF64,
                                  slot.f64.data(), spec.num_groups);
        impl->ctx.BindAccumulator(Spec::AvgCntName(sa.name), TypeId::kI64,
                                  slot.cnt.data(), spec.num_groups);
        break;
    }
  }
  // Row-output windows are bound by shape here; the prepare hook rebinds
  // them (resident or scratch) on every submission.
  if (spec.row_mode) {
    for (size_t i = 0; i < spec.out_cols.size(); ++i) {
      impl->ctx.BindPartialOutputScratch(Spec::OutName(spec.out_cols[i]),
                                         spec.out_types[i], spec.fan_out);
    }
  }
  // Statically verify the program against the roles just bound (always on:
  // docs/VERIFIER.md level 1): the verified program is the one that runs.
  analysis::VerifyResult vr = analysis::VerifyProgram(
      impl->ctx.program(), impl->ctx.BindingTable());
  if (!vr.clean()) {
    return Status::InvalidArgument(
        "lowered program failed static verification:\n" + vr.ToString());
  }
  // Task + barrier + memory hooks give the query its materialization:
  // per-morsel output counts and partial sorts, the run merge / average
  // division at the Session barrier, and the budget decision (resident
  // windows vs spill-to-disk) at classification. The Impl outlives the ctx
  // embedded in it, so a raw pointer capture is safe.
  Query::Impl* self = impl.get();
  impl->ctx.set_prepare_hook(
      [self](const MemoryPlan& plan, PrepareOutcome* out) {
        return self->OnPrepare(plan, out);
      });
  impl->ctx.set_cleanup_hook([self] { self->OnCleanup(); });
  if (spec.row_mode) {
    impl->ctx.set_task_hook(
        [self](const interp::Interpreter& in, const Morsel& m) {
          return self->OnTask(in, m);
        });
  }
  impl->ctx.set_finalize_hook(
      [self](const ExecContext::ParallelFor& parallel_for) {
        return self->Finalize(parallel_for);
      });

  // The builder stays reusable: the built query shares this spec, and the
  // next mutating call (or Build) forks it copy-on-write.
  return Query(std::move(impl));
}

}  // namespace avm::engine
