#include "util/rng.h"

#include <gtest/gtest.h>

namespace avm {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 100000; ++i) {
    int64_t v = r.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(5);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double v = r.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng r(6);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

}  // namespace
}  // namespace avm
