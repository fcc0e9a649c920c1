#include "relational/q1.h"

#include <algorithm>
#include <cstring>

#include "dsl/typecheck.h"
#include "interp/kernels.h"
#include "jit/code_cache.h"
#include "storage/bitpack.h"
#include "util/string_util.h"

namespace avm::relational {

namespace {

using interp::FilterKernelFn;
using interp::KernelRegistry;
using interp::OperandMode;
using interp::PrimKernelFn;

struct Q1Columns {
  const Column* qty;
  const Column* price;
  const Column* disc;
  const Column* tax;
  const Column* rf;
  const Column* ls;
  const Column* sd;
};

Result<Q1Columns> ResolveColumns(const Table& t) {
  Q1Columns c{};
  AVM_ASSIGN_OR_RETURN(c.qty, t.ColumnByName("l_quantity"));
  AVM_ASSIGN_OR_RETURN(c.price, t.ColumnByName("l_extendedprice"));
  AVM_ASSIGN_OR_RETURN(c.disc, t.ColumnByName("l_discount"));
  AVM_ASSIGN_OR_RETURN(c.tax, t.ColumnByName("l_tax"));
  AVM_ASSIGN_OR_RETURN(c.rf, t.ColumnByName("l_returnflag"));
  AVM_ASSIGN_OR_RETURN(c.ls, t.ColumnByName("l_linestatus"));
  AVM_ASSIGN_OR_RETURN(c.sd, t.ColumnByName("l_shipdate"));
  return c;
}

}  // namespace

Result<Q1Result> RunQ1Scalar(const Table& lineitem) {
  AVM_ASSIGN_OR_RETURN(Q1Columns c, ResolveColumns(lineitem));
  const uint64_t n = lineitem.num_rows();
  Q1Result r;
  constexpr uint32_t kBatch = 4096;
  std::vector<int64_t> qty(kBatch), price(kBatch), disc(kBatch), tax(kBatch);
  std::vector<int8_t> rf(kBatch), ls(kBatch);
  std::vector<int32_t> sd(kBatch);
  for (uint64_t pos = 0; pos < n; pos += kBatch) {
    const uint32_t m = static_cast<uint32_t>(std::min<uint64_t>(kBatch,
                                                                n - pos));
    AVM_RETURN_NOT_OK(c.qty->Read(pos, m, qty.data()));
    AVM_RETURN_NOT_OK(c.price->Read(pos, m, price.data()));
    AVM_RETURN_NOT_OK(c.disc->Read(pos, m, disc.data()));
    AVM_RETURN_NOT_OK(c.tax->Read(pos, m, tax.data()));
    AVM_RETURN_NOT_OK(c.rf->Read(pos, m, rf.data()));
    AVM_RETURN_NOT_OK(c.ls->Read(pos, m, ls.data()));
    AVM_RETURN_NOT_OK(c.sd->Read(pos, m, sd.data()));
    for (uint32_t i = 0; i < m; ++i) {
      if (sd[i] > kQ1Cutoff) continue;
      const int g = static_cast<int>(rf[i]) * 2 + static_cast<int>(ls[i]);
      const int64_t dp = price[i] * (100 - disc[i]);
      Q1Group& grp = r.groups[static_cast<size_t>(g)];
      grp.sum_qty += qty[i];
      grp.sum_base_price += price[i];
      grp.sum_disc_price += dp;
      grp.sum_charge += dp * (100 + tax[i]);
      ++grp.count;
    }
  }
  return r;
}

Result<Q1Result> RunQ1Vectorized(const Table& lineitem, uint32_t chunk_size) {
  AVM_ASSIGN_OR_RETURN(Q1Columns c, ResolveColumns(lineitem));
  const KernelRegistry& reg = KernelRegistry::Get();
  const uint64_t n = lineitem.num_rows();
  Q1Result r;

  std::vector<int64_t> qty(chunk_size), price(chunk_size), disc(chunk_size),
      tax(chunk_size), d100(chunk_size), dp(chunk_size), t108(chunk_size),
      ch(chunk_size);
  std::vector<int8_t> rf(chunk_size), ls(chunk_size);
  std::vector<int32_t> sd(chunk_size);
  std::vector<sel_t> sel(chunk_size);

  FilterKernelFn filter = reg.Filter(dsl::ScalarOp::kLe, TypeId::kI32,
                                     /*rhs_scalar=*/true, /*selective=*/false);
  PrimKernelFn sub_sv =
      reg.Binary(dsl::ScalarOp::kSub, TypeId::kI64, OperandMode::kScalarVec,
                 /*selective=*/true);
  PrimKernelFn add_vs =
      reg.Binary(dsl::ScalarOp::kAdd, TypeId::kI64, OperandMode::kVecScalar,
                 /*selective=*/true);
  PrimKernelFn mul_vv =
      reg.Binary(dsl::ScalarOp::kMul, TypeId::kI64, OperandMode::kVecVec,
                 /*selective=*/true);

  const int32_t cutoff = kQ1Cutoff;
  const int64_t hundred = 100;
  for (uint64_t pos = 0; pos < n; pos += chunk_size) {
    const uint32_t m =
        static_cast<uint32_t>(std::min<uint64_t>(chunk_size, n - pos));
    AVM_RETURN_NOT_OK(c.qty->Read(pos, m, qty.data()));
    AVM_RETURN_NOT_OK(c.price->Read(pos, m, price.data()));
    AVM_RETURN_NOT_OK(c.disc->Read(pos, m, disc.data()));
    AVM_RETURN_NOT_OK(c.tax->Read(pos, m, tax.data()));
    AVM_RETURN_NOT_OK(c.rf->Read(pos, m, rf.data()));
    AVM_RETURN_NOT_OK(c.ls->Read(pos, m, ls.data()));
    AVM_RETURN_NOT_OK(c.sd->Read(pos, m, sd.data()));

    const uint32_t k = filter(sd.data(), &cutoff, nullptr, m, sel.data());
    // 100 - disc
    sub_sv(&hundred, disc.data(), d100.data(), sel.data(), k);
    // price * (100 - disc)
    mul_vv(price.data(), d100.data(), dp.data(), sel.data(), k);
    // tax + 100
    add_vs(tax.data(), &hundred, t108.data(), sel.data(), k);
    // disc_price * (100 + tax)
    mul_vv(dp.data(), t108.data(), ch.data(), sel.data(), k);

    // Fused aggregation primitive over the selection.
    for (uint32_t j = 0; j < k; ++j) {
      const uint32_t i = sel[j];
      const int g = static_cast<int>(rf[i]) * 2 + static_cast<int>(ls[i]);
      Q1Group& grp = r.groups[static_cast<size_t>(g)];
      grp.sum_qty += qty[i];
      grp.sum_base_price += price[i];
      grp.sum_disc_price += dp[i];
      grp.sum_charge += ch[i];
      ++grp.count;
    }
  }
  return r;
}

namespace {

// Decode an i64 column window into i32, exploiting FOR compression when the
// window lies in a FOR block with narrow deltas (compressed execution: the
// add-reference happens in i32). Falls back to decode + narrow.
Status ReadAsI32(const Column& col, uint64_t pos, uint32_t m, int32_t* out,
                 std::vector<int64_t>* wide_scratch) {
  auto blk = col.BlockAt(pos);
  if (blk.ok()) {
    const Block* b = blk.value().first;
    const uint32_t off = blk.value().second;
    if (b->scheme == Scheme::kFor && b->bit_width <= 31 && off + m <= b->count &&
        b->for_ref >= INT32_MIN && b->for_ref <= INT32_MAX) {
      const int32_t ref = static_cast<int32_t>(b->for_ref);
      // Narrow decode: unpack deltas straight into i32 and add the ref.
      BitUnpackEach(b->data.data(), b->data.size(), off, m, b->bit_width,
                    [&](size_t i, uint64_t d) {
                      out[i] = ref + static_cast<int32_t>(d);
                    });
      return Status::OK();
    }
  }
  wide_scratch->resize(m);
  AVM_RETURN_NOT_OK(col.Read(pos, m, wide_scratch->data()));
  for (uint32_t i = 0; i < m; ++i) {
    out[i] = static_cast<int32_t>((*wide_scratch)[i]);
  }
  return Status::OK();
}

}  // namespace

Result<Q1Result> RunQ1VectorizedCompact(const Table& lineitem,
                                        uint32_t chunk_size) {
  AVM_ASSIGN_OR_RETURN(Q1Columns c, ResolveColumns(lineitem));
  const KernelRegistry& reg = KernelRegistry::Get();
  const uint64_t n = lineitem.num_rows();
  Q1Result r;

  // Compact execution types justified by the generator's value bounds:
  //   price <= 10.5e6  -> i32;  (100-disc) <= 100 -> i32
  //   price*(100-disc) <= 1.05e9 -> still i32 (verified via interval math)
  //   charge needs i64 -> computed in the fused aggregation loop.
  std::vector<int32_t> qty32(chunk_size), price32(chunk_size),
      disc32(chunk_size), tax32(chunk_size), d100(chunk_size), dp32(chunk_size);
  std::vector<int8_t> rf(chunk_size), ls(chunk_size);
  std::vector<int32_t> sd(chunk_size);
  std::vector<sel_t> sel(chunk_size);
  std::vector<int64_t> wide;

  FilterKernelFn filter = reg.Filter(dsl::ScalarOp::kLe, TypeId::kI32,
                                     true, false);
  PrimKernelFn sub_sv = reg.Binary(dsl::ScalarOp::kSub, TypeId::kI32,
                                   OperandMode::kScalarVec, true);
  PrimKernelFn mul_vv = reg.Binary(dsl::ScalarOp::kMul, TypeId::kI32,
                                   OperandMode::kVecVec, true);

  const int32_t cutoff = kQ1Cutoff;
  const int32_t hundred32 = 100;
  for (uint64_t pos = 0; pos < n; pos += chunk_size) {
    const uint32_t m =
        static_cast<uint32_t>(std::min<uint64_t>(chunk_size, n - pos));
    AVM_RETURN_NOT_OK(ReadAsI32(*c.qty, pos, m, qty32.data(), &wide));
    AVM_RETURN_NOT_OK(ReadAsI32(*c.price, pos, m, price32.data(), &wide));
    AVM_RETURN_NOT_OK(ReadAsI32(*c.disc, pos, m, disc32.data(), &wide));
    AVM_RETURN_NOT_OK(ReadAsI32(*c.tax, pos, m, tax32.data(), &wide));
    AVM_RETURN_NOT_OK(c.rf->Read(pos, m, rf.data()));
    AVM_RETURN_NOT_OK(c.ls->Read(pos, m, ls.data()));
    AVM_RETURN_NOT_OK(c.sd->Read(pos, m, sd.data()));

    const uint32_t k = filter(sd.data(), &cutoff, nullptr, m, sel.data());
    sub_sv(&hundred32, disc32.data(), d100.data(), sel.data(), k);
    mul_vv(price32.data(), d100.data(), dp32.data(), sel.data(), k);

    // Per-chunk pre-aggregation into cache-resident partials, merged below.
    Q1Group partial[8]{};
    for (uint32_t j = 0; j < k; ++j) {
      const uint32_t i = sel[j];
      const int g = static_cast<int>(rf[i]) * 2 + static_cast<int>(ls[i]);
      Q1Group& grp = partial[static_cast<size_t>(g)];
      grp.sum_qty += qty32[i];
      grp.sum_base_price += price32[i];
      grp.sum_disc_price += dp32[i];
      grp.sum_charge +=
          static_cast<int64_t>(dp32[i]) * (100 + tax32[i]);
      ++grp.count;
    }
    for (int g = 0; g < 8; ++g) {
      r.groups[g].sum_qty += partial[g].sum_qty;
      r.groups[g].sum_base_price += partial[g].sum_base_price;
      r.groups[g].sum_disc_price += partial[g].sum_disc_price;
      r.groups[g].sum_charge += partial[g].sum_charge;
      r.groups[g].count += partial[g].count;
    }
  }
  return r;
}

Result<Q1Result> RunQ1CompiledWholeQuery(const Table& lineitem) {
  AVM_ASSIGN_OR_RETURN(Q1Columns c, ResolveColumns(lineitem));
  const uint64_t n = lineitem.num_rows();

  // The HyPer-style plan reads plain memory: decode columns first (a real
  // engine's compiled scan does the equivalent work inline).
  std::vector<int64_t> qty(n), price(n), disc(n), tax(n);
  std::vector<int8_t> rf(n), ls(n);
  std::vector<int32_t> sd(n);
  AVM_RETURN_NOT_OK(c.qty->Read(0, n, qty.data()));
  AVM_RETURN_NOT_OK(c.price->Read(0, n, price.data()));
  AVM_RETURN_NOT_OK(c.disc->Read(0, n, disc.data()));
  AVM_RETURN_NOT_OK(c.tax->Read(0, n, tax.data()));
  AVM_RETURN_NOT_OK(c.rf->Read(0, n, rf.data()));
  AVM_RETURN_NOT_OK(c.ls->Read(0, n, ls.data()));
  AVM_RETURN_NOT_OK(c.sd->Read(0, n, sd.data()));

  const std::string source = StrFormat(R"(#include <cstdint>
extern "C" void avm_q1_whole(const int64_t* qty, const int64_t* price,
                             const int64_t* disc, const int64_t* tax,
                             const int8_t* rf, const int8_t* ls,
                             const int32_t* sd, uint64_t n, int64_t* acc) {
  for (uint64_t i = 0; i < n; ++i) {
    if (sd[i] > %d) continue;
    const int g = (int)rf[i] * 2 + (int)ls[i];
    const int64_t dp = price[i] * (100 - disc[i]);
    int64_t* a = acc + g * 5;
    a[0] += qty[i];
    a[1] += price[i];
    a[2] += dp;
    a[3] += dp * (100 + tax[i]);
    a[4] += 1;
  }
}
)",
                                       kQ1Cutoff);
  using Q1Fn = void (*)(const int64_t*, const int64_t*, const int64_t*,
                        const int64_t*, const int8_t*, const int8_t*,
                        const int32_t*, uint64_t, int64_t*);
  AVM_ASSIGN_OR_RETURN(
      jit::CodeRequest code,
      jit::CodeCache::Global().Request(source, "avm_q1_whole", /*disk=*/nullptr,
                                       /*compiler=*/nullptr));
  int64_t acc[40] = {0};
  reinterpret_cast<Q1Fn>(code.fn)(qty.data(), price.data(), disc.data(),
                              tax.data(), rf.data(), ls.data(), sd.data(), n,
                              acc);
  Q1Result r;
  for (int g = 0; g < 8; ++g) {
    r.groups[g].sum_qty = acc[g * 5 + 0];
    r.groups[g].sum_base_price = acc[g * 5 + 1];
    r.groups[g].sum_disc_price = acc[g * 5 + 2];
    r.groups[g].sum_charge = acc[g * 5 + 3];
    r.groups[g].count = acc[g * 5 + 4];
  }
  return r;
}

Result<engine::Query> MakeQ1Query(const Table& lineitem) {
  using dsl::Cast;
  using dsl::ConstI;
  using dsl::Var;
  engine::QueryBuilder qb(lineitem);
  qb.Filter(Var("l_shipdate") <= ConstI(kQ1Cutoff))
      // disc_price = price * (100 - disc); charge = disc_price * (100+tax).
      .Project("dp", Var("l_extendedprice") * (ConstI(100) - Var("l_discount")))
      .Project("ch", Var("dp") * (ConstI(100) + Var("l_tax")))
      .Aggregate(Cast(TypeId::kI64, Var("l_returnflag")) * ConstI(2) +
                     Cast(TypeId::kI64, Var("l_linestatus")),
                 /*num_groups=*/8)
      .Sum("sum_qty", Var("l_quantity"))
      .Sum("sum_base", Var("l_extendedprice"))
      .Sum("sum_disc", Var("dp"))
      .Sum("sum_charge", Var("ch"))
      .Count("count");
  return qb.Build();
}

Q1Result Q1ResultFromQuery(const engine::Query& query) {
  Q1Result r;
  const std::vector<int64_t>& qty = query.aggregate("sum_qty");
  const std::vector<int64_t>& base = query.aggregate("sum_base");
  const std::vector<int64_t>& disc = query.aggregate("sum_disc");
  const std::vector<int64_t>& charge = query.aggregate("sum_charge");
  const std::vector<int64_t>& count = query.aggregate("count");
  for (int g = 0; g < 8; ++g) {
    r.groups[g].sum_qty = qty[g];
    r.groups[g].sum_base_price = base[g];
    r.groups[g].sum_disc_price = disc[g];
    r.groups[g].sum_charge = charge[g];
    r.groups[g].count = count[g];
  }
  return r;
}

}  // namespace avm::relational
