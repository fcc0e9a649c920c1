#include "driver/workloads.h"

#include <algorithm>
#include <numeric>

#include "storage/datagen.h"
#include "util/rng.h"

namespace perfbench {

using avm::Result;
using avm::Table;
using avm::TypeId;
using avm::dsl::ConstI;
using avm::dsl::Var;
using avm::engine::Query;

namespace {

// Budget far below the resident peak of the join + ORDER BY plan (its
// output windows alone are tens of MiB) that still leaves room for the
// build-side tables, so every morsel seals a sorted run to disk.
constexpr uint64_t kSpillBudget = 4u << 20;

// Seed streams: one per generated table, so changing one table's size
// never shifts another table's values.
constexpr uint64_t kLineitemStream = 0x11;
constexpr uint64_t kProbeStream = 0x22;
constexpr uint64_t kBuildStream = 0x33;

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream;
}

void AppendAll(Table& t, size_t col, const std::vector<int64_t>& v) {
  t.column(col)
      .AppendValues(v.data(), static_cast<uint32_t>(v.size()))
      .Abort("perfbench: append");
}

std::vector<int64_t> DecodeI64(const Table& t, const std::string& name) {
  const avm::Column* c = t.ColumnByName(name).ValueOrDie();
  std::vector<int64_t> out(c->num_rows());
  c->Read(0, static_cast<uint32_t>(out.size()), out.data())
      .Abort("perfbench: decode");
  return out;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kQ1:
      return "q1";
    case Shape::kJoinAgg:
      return "join_agg";
    case Shape::kSemijoin:
      return "semijoin";
    case Shape::kJoinOrderBy:
      return "join_orderby";
  }
  return "?";
}

DataSizes SmallSizes() {
  return {.lineitem_rows = 64 * 1024, .probe_rows = 64 * 1024,
          .join_keys = 2048};
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {.name = "q1_agg",
       .sizes = {.lineitem_rows = 4'000'000},
       .memory_budget = 0,
       .in_flight = 1,
       .shapes = {Shape::kQ1}},
      {.name = "join_orderby",
       .sizes = {.probe_rows = 200'000, .join_keys = 8192},
       .memory_budget = 0,
       .in_flight = 1,
       .shapes = {Shape::kJoinOrderBy}},
      {.name = "join_orderby_spill",
       .sizes = {.probe_rows = 200'000, .join_keys = 8192},
       .memory_budget = kSpillBudget,
       .in_flight = 1,
       .shapes = {Shape::kJoinOrderBy}},
      {.name = "mixed_clients",
       .sizes = SmallSizes(),
       .memory_budget = 0,
       .in_flight = 4,
       .shapes = {Shape::kQ1, Shape::kJoinAgg, Shape::kSemijoin,
                  Shape::kJoinOrderBy}},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs GenerateInputs(uint64_t seed, const DataSizes& sizes) {
  Inputs in;
  if (sizes.lineitem_rows > 0) {
    avm::LineitemSpec spec;
    spec.num_rows = sizes.lineitem_rows;
    spec.seed = StreamSeed(seed, kLineitemStream);
    in.lineitem = avm::MakeLineitem(spec);
  }
  if (sizes.probe_rows == 0) return in;

  const uint64_t n = sizes.probe_rows;
  avm::Rng rng(StreamSeed(seed, kProbeStream));
  std::vector<int64_t> key(n), a(n), b(n);
  for (uint64_t i = 0; i < n; ++i) {
    key[i] = rng.NextInRange(-3, sizes.join_keys + 40);
    a[i] = rng.NextInRange(0, 999);
    b[i] = rng.NextInRange(0, 999);
  }
  in.probe = std::make_unique<Table>(avm::Schema({{"f_key", TypeId::kI64},
                                                  {"f_a", TypeId::kI64},
                                                  {"f_b", TypeId::kI64}}));
  AppendAll(*in.probe, 0, key);
  AppendAll(*in.probe, 1, a);
  AppendAll(*in.probe, 2, b);

  avm::Rng brng(StreamSeed(seed, kBuildStream));
  std::vector<int64_t> dk, dv;
  for (int64_t k = 0; k < sizes.join_keys; ++k) {
    const int64_t copies = brng.NextInRange(1, 3);
    for (int64_t c = 0; c < copies; ++c) {
      dk.push_back(k);
      dv.push_back(brng.NextInRange(1, 500));
    }
  }
  in.dup = std::make_unique<Table>(
      avm::Schema({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}}));
  AppendAll(*in.dup, 0, dk);
  AppendAll(*in.dup, 1, dv);

  std::vector<int64_t> kk(1000), kv(1000);
  in.semi = std::make_unique<avm::relational::HashSetI64>(1024);
  for (int64_t k = 0; k < 1000; ++k) {
    kk[k] = k;
    kv[k] = brng.NextInRange(1, 1000);
    if (brng.NextBool(0.3)) in.semi->Insert(k);
  }
  in.dim = std::make_unique<Table>(
      avm::Schema({{"k_key", TypeId::kI64}, {"k_val", TypeId::kI64}}));
  AppendAll(*in.dim, 0, kk);
  AppendAll(*in.dim, 1, kv);
  return in;
}

JoinColumns DecodeJoinColumns(const Inputs& in) {
  JoinColumns c;
  c.f_key = DecodeI64(*in.probe, "f_key");
  c.f_a = DecodeI64(*in.probe, "f_a");
  c.f_b = DecodeI64(*in.probe, "f_b");
  c.d_key = DecodeI64(*in.dup, "d_key");
  c.d_val = DecodeI64(*in.dup, "d_val");
  c.k_key = DecodeI64(*in.dim, "k_key");
  c.k_val = DecodeI64(*in.dim, "k_val");
  return c;
}

JoinRows ReferenceJoinOrderBy(const JoinColumns& cols,
                              const avm::relational::HashJoinI64& build) {
  constexpr uint32_t kChunk = 1024;
  constexpr uint32_t kMaxCopies = 3;
  JoinRows out;
  std::vector<avm::sel_t> in_sel(kChunk), pos(kChunk * kMaxCopies);
  std::vector<uint32_t> rows(kChunk * kMaxCopies);
  const uint64_t n = cols.f_key.size();
  for (uint64_t base = 0; base < n; base += kChunk) {
    const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(kChunk, n - base));
    uint32_t m = 0;
    for (uint32_t i = 0; i < len; ++i) {
      if (cols.f_a[base + i] < kJoinFilterBelow) in_sel[m++] = i;
    }
    const uint32_t pairs = build.Probe(cols.f_key.data() + base, in_sel.data(),
                                       m, pos.data(), rows.data());
    for (uint32_t p = 0; p < pairs; ++p) {
      out.f_key.push_back(cols.f_key[base + pos[p]]);
      out.f_b.push_back(cols.f_b[base + pos[p]]);
      out.d_val.push_back(cols.d_val[rows[p]]);
    }
  }
  std::vector<uint32_t> order(out.f_key.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return out.f_key[x] < out.f_key[y];
  });
  JoinRows sorted;
  sorted.f_key.reserve(order.size());
  sorted.f_b.reserve(order.size());
  sorted.d_val.reserve(order.size());
  for (uint32_t r : order) {
    sorted.f_key.push_back(out.f_key[r]);
    sorted.f_b.push_back(out.f_b[r]);
    sorted.d_val.push_back(out.d_val[r]);
  }
  return sorted;
}

uint64_t RowsChecksum(const int64_t* f_key, const int64_t* f_b,
                      const int64_t* d_val, uint64_t rows) {
  const size_t bytes = rows * sizeof(int64_t);
  uint64_t h = 0xcbf29ce484222325ull;
  h = Fnv(h, f_key, bytes);
  h = Fnv(h, f_b, bytes);
  return Fnv(h, d_val, bytes);
}

Oracle ComputeOracle(const Inputs& in, const std::vector<Shape>& shapes) {
  Oracle o;
  const bool joins = std::any_of(shapes.begin(), shapes.end(),
                                 [](Shape s) { return s != Shape::kQ1; });
  if (std::count(shapes.begin(), shapes.end(), Shape::kQ1) > 0) {
    o.q1 = avm::relational::RunQ1Scalar(*in.lineitem).ValueOrDie();
  }
  if (!joins) return o;
  const JoinColumns cols = DecodeJoinColumns(in);

  avm::relational::HashJoinI64 dup(cols.d_key.size());
  for (size_t r = 0; r < cols.d_key.size(); ++r) {
    dup.Insert(cols.d_key[r], static_cast<uint32_t>(r));
  }
  const JoinRows rows = ReferenceJoinOrderBy(cols, dup);
  o.join_rows = rows.f_key.size();
  o.join_checksum = RowsChecksum(rows.f_key.data(), rows.f_b.data(),
                                 rows.d_val.data(), o.join_rows);

  avm::relational::HashJoinI64 dim(cols.k_key.size());
  for (size_t r = 0; r < cols.k_key.size(); ++r) {
    dim.Insert(cols.k_key[r], static_cast<uint32_t>(r));
  }
  for (size_t i = 0; i < cols.f_a.size(); ++i) {
    avm::sel_t pos[1];
    uint32_t row[1];
    if (dim.Probe(&cols.f_a[i], nullptr, 1, pos, row) == 1) {
      o.revenue += cols.f_b[i] * cols.k_val[row[0]];
      ++o.matches;
    }
    if (in.semi->Contains(cols.f_a[i])) ++o.survivors;
  }
  return o;
}

Result<Query> BuildQuery(Shape shape, const Inputs& in, bool order_by) {
  switch (shape) {
    case Shape::kQ1:
      return avm::relational::MakeQ1Query(*in.lineitem);
    case Shape::kJoinAgg:
      return avm::relational::MakeJoinQuery(*in.probe, "f_a", "f_b", *in.dim,
                                            "k_key", "k_val");
    case Shape::kSemijoin:
      return avm::relational::MakeSemijoinQuery(*in.probe, {"f_a"},
                                                {in.semi.get()});
    case Shape::kJoinOrderBy: {
      avm::engine::QueryBuilder qb(*in.probe);
      qb.Filter(Var("f_a") < ConstI(kJoinFilterBelow))
          .Join(*in.dup, "f_key", "d_key", {"d_val"})
          .Output("f_key")
          .Output("f_b")
          .Output("d_val");
      if (order_by) qb.OrderBy("f_key");
      return qb.Build();
    }
  }
  return avm::Status::InvalidArgument("unknown shape");
}

uint64_t InputRows(Shape shape, const Inputs& in) {
  return shape == Shape::kQ1 ? in.lineitem->num_rows() : in.probe->num_rows();
}

bool CheckJoinRows(const std::vector<Query::ResultColumn>& cols, uint64_t rows,
                   const Oracle& o) {
  const int64_t* f_key = nullptr;
  const int64_t* f_b = nullptr;
  const int64_t* d_val = nullptr;
  for (const Query::ResultColumn& c : cols) {
    if (c.type != TypeId::kI64 || c.data.size() != rows * sizeof(int64_t)) {
      return false;
    }
    if (c.name == "f_key") f_key = c.As<int64_t>();
    if (c.name == "f_b") f_b = c.As<int64_t>();
    if (c.name == "d_val") d_val = c.As<int64_t>();
  }
  if (f_key == nullptr || f_b == nullptr || d_val == nullptr) return false;
  return rows == o.join_rows &&
         RowsChecksum(f_key, f_b, d_val, rows) == o.join_checksum;
}

bool CheckResult(Shape shape, const Query& q, const Oracle& o) {
  switch (shape) {
    case Shape::kQ1:
      return avm::relational::Q1ResultFromQuery(q) == o.q1;
    case Shape::kJoinAgg:
      return q.aggregate("revenue")[0] == o.revenue &&
             q.aggregate("matches")[0] == o.matches;
    case Shape::kSemijoin:
      return q.aggregate("survivors")[0] == o.survivors;
    case Shape::kJoinOrderBy:
      return CheckJoinRows(q.result_columns(), q.num_result_rows(), o);
  }
  return false;
}

}  // namespace perfbench
