#include "engine/morsel.h"

#include <gtest/gtest.h>

namespace avm::engine {
namespace {

TEST(PartitionRowsTest, CoversRangeExactlyOnce) {
  for (uint64_t rows : {1ull, 1000ull, 65536ull, 1000000ull}) {
    for (size_t workers : {1u, 3u, 4u, 16u}) {
      auto morsels = PartitionRows(rows, workers, 0, 1024);
      ASSERT_FALSE(morsels.empty());
      uint64_t expect_begin = 0;
      for (const Morsel& m : morsels) {
        EXPECT_EQ(m.begin, expect_begin);
        EXPECT_GT(m.end, m.begin);
        expect_begin = m.end;
      }
      EXPECT_EQ(expect_begin, rows);
    }
  }
}

TEST(PartitionRowsTest, MorselsAreChunkAligned) {
  auto morsels = PartitionRows(1000000, 4, 0, 1024);
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].rows() % 1024, 0u) << "morsel " << i;
  }
}

TEST(PartitionRowsTest, ExplicitMorselSizeHonored) {
  auto morsels = PartitionRows(10000, 2, 4096, 1024);
  ASSERT_EQ(morsels.size(), 3u);
  EXPECT_EQ(morsels[0].rows(), 4096u);
  EXPECT_EQ(morsels[1].rows(), 4096u);
  EXPECT_EQ(morsels[2].rows(), 10000u - 8192u);
}

TEST(PartitionRowsTest, ZeroRowsIsEmpty) {
  EXPECT_TRUE(PartitionRows(0, 4, 0, 1024).empty());
}

}  // namespace
}  // namespace avm::engine
