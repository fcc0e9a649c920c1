#include "util/bits.h"

#include <gtest/gtest.h>

namespace avm::bits {
namespace {

TEST(BitsTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 0u);
  EXPECT_EQ(BitWidth(1), 1u);
  EXPECT_EQ(BitWidth(2), 2u);
  EXPECT_EQ(BitWidth(3), 2u);
  EXPECT_EQ(BitWidth(255), 8u);
  EXPECT_EQ(BitWidth(256), 9u);
  EXPECT_EQ(BitWidth(~uint64_t{0}), 64u);
}

TEST(BitsTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(64), 64u);
  EXPECT_EQ(NextPow2(65), 128u);
}

}  // namespace
}  // namespace avm::bits
