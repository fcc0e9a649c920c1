#include "storage/datagen.h"

#include <gtest/gtest.h>

#include <set>

namespace avm {
namespace {

TEST(DataGenTest, Deterministic) {
  DataGen a(7), b(7);
  EXPECT_EQ(a.UniformI64(100, 0, 1000), b.UniformI64(100, 0, 1000));
}

TEST(DataGenTest, RunsHaveRequestedMeanLength) {
  DataGen gen(1);
  auto v = gen.RunsI64(100000, 50, 8.0);
  uint64_t runs = 1;
  for (size_t i = 1; i < v.size(); ++i) runs += v[i] != v[i - 1] ? 1 : 0;
  double mean = 100000.0 / runs;
  EXPECT_NEAR(mean, 8.0, 1.5);
}

TEST(DataGenTest, SortedIsSorted) {
  DataGen gen(2);
  auto v = gen.SortedI64(10000, -100, 100);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(LineitemTest, SchemaAndDomains) {
  LineitemSpec spec;
  spec.num_rows = 20000;
  auto t = MakeLineitem(spec);
  ASSERT_EQ(t->num_rows(), 20000u);
  ASSERT_EQ(t->num_columns(), 7u);

  std::vector<int64_t> qty(20000);
  ASSERT_TRUE(t->column(0).Read(0, 20000, qty.data()).ok());
  for (auto q : qty) {
    ASSERT_GE(q, 1);
    ASSERT_LE(q, 50);
  }
  std::vector<int8_t> rf(20000);
  ASSERT_TRUE(t->column(4).Read(0, 20000, rf.data()).ok());
  std::set<int8_t> flags(rf.begin(), rf.end());
  EXPECT_LE(flags.size(), 3u);
  std::vector<int32_t> sd(20000);
  ASSERT_TRUE(t->column(6).Read(0, 20000, sd.data()).ok());
  for (auto d : sd) {
    ASSERT_GE(d, 8036);
    ASSERT_LE(d, 10561);
  }
}

TEST(LineitemTest, ReturnflagCorrelatesWithShipdate) {
  LineitemSpec spec;
  spec.num_rows = 20000;
  auto t = MakeLineitem(spec);
  std::vector<int8_t> rf(20000);
  std::vector<int32_t> sd(20000);
  ASSERT_TRUE(t->column(4).Read(0, 20000, rf.data()).ok());
  ASSERT_TRUE(t->column(6).Read(0, 20000, sd.data()).ok());
  for (int i = 0; i < 20000; ++i) {
    if (sd[i] >= 9400) EXPECT_EQ(rf[i], 1);  // 'N' only for recent dates
  }
}

TEST(LineitemTest, CompressionActuallyHappens) {
  LineitemSpec spec;
  spec.num_rows = 100000;
  spec.compress = true;
  auto compressed = MakeLineitem(spec);
  spec.compress = false;
  auto plain = MakeLineitem(spec);
  EXPECT_LT(compressed->EncodedBytes(), plain->EncodedBytes());
}

}  // namespace
}  // namespace avm
