#include "storage/datagen.h"

#include <algorithm>

namespace avm {

std::vector<int64_t> DataGen::UniformI64(size_t n, int64_t lo, int64_t hi) {
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng_.NextInRange(lo, hi);
  return v;
}

std::vector<int64_t> DataGen::SortedI64(size_t n, int64_t lo, int64_t hi) {
  auto v = UniformI64(n, lo, hi);
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<int64_t> DataGen::RunsI64(size_t n, int64_t domain,
                                      double run_len) {
  std::vector<int64_t> v(n);
  size_t i = 0;
  while (i < n) {
    int64_t value = rng_.NextInRange(0, domain - 1);
    // Geometric run length with the requested mean.
    size_t len = 1;
    while (rng_.NextDouble() < 1.0 - 1.0 / run_len) ++len;
    for (size_t j = 0; j < len && i < n; ++j) v[i++] = value;
  }
  return v;
}

namespace {

Status AppendColumn(Table* t, size_t col, const void* data, uint64_t n,
                    bool compress) {
  Column& c = t->column(col);
  const size_t w = TypeWidth(c.type());
  const auto* bytes = static_cast<const uint8_t*>(data);
  if (compress) return c.AppendValues(bytes, static_cast<uint32_t>(n));
  // Force Plain blocks.
  uint64_t done = 0;
  while (done < n) {
    uint32_t take =
        static_cast<uint32_t>(std::min<uint64_t>(c.block_size(), n - done));
    AVM_RETURN_NOT_OK(
        c.AppendBlockWithScheme(Scheme::kPlain, bytes + done * w, take));
    done += take;
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<Table> MakeLineitem(const LineitemSpec& spec) {
  Schema schema({{"l_quantity", TypeId::kI64},
                 {"l_extendedprice", TypeId::kI64},
                 {"l_discount", TypeId::kI64},
                 {"l_tax", TypeId::kI64},
                 {"l_returnflag", TypeId::kI8},
                 {"l_linestatus", TypeId::kI8},
                 {"l_shipdate", TypeId::kI32}});
  auto table = std::make_unique<Table>(schema, spec.block_size);
  Rng rng(spec.seed);
  const uint64_t n = spec.num_rows;

  std::vector<int64_t> quantity(n), price(n), discount(n), tax(n);
  std::vector<int8_t> returnflag(n), linestatus(n);
  std::vector<int32_t> shipdate(n);
  for (uint64_t i = 0; i < n; ++i) {
    quantity[i] = rng.NextInRange(1, 50);
    price[i] = rng.NextInRange(90000, 10500000);
    discount[i] = rng.NextInRange(0, 10);
    tax[i] = rng.NextInRange(0, 8);
    // TPC-H: returnflag correlates with shipdate; reproduce the correlation
    // so group sizes match (A/R only for old shipdates).
    shipdate[i] = static_cast<int32_t>(rng.NextInRange(8036, 10561));
    if (shipdate[i] < 9400) {
      returnflag[i] = static_cast<int8_t>(rng.NextBool(0.5) ? 0 : 2);  // A/R
    } else {
      returnflag[i] = 1;  // N
    }
    linestatus[i] = static_cast<int8_t>(shipdate[i] < 9500 ? 1 : 0);  // F/O
  }
  AppendColumn(table.get(), 0, quantity.data(), n, spec.compress).Abort();
  AppendColumn(table.get(), 1, price.data(), n, spec.compress).Abort();
  AppendColumn(table.get(), 2, discount.data(), n, spec.compress).Abort();
  AppendColumn(table.get(), 3, tax.data(), n, spec.compress).Abort();
  AppendColumn(table.get(), 4, returnflag.data(), n, spec.compress).Abort();
  AppendColumn(table.get(), 5, linestatus.data(), n, spec.compress).Abort();
  AppendColumn(table.get(), 6, shipdate.data(), n, spec.compress).Abort();
  return table;
}

}  // namespace avm
