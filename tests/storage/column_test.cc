#include "storage/column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "storage/datagen.h"
#include "storage/table.h"

namespace avm {
namespace {

TEST(ColumnTest, AppendSplitsIntoBlocks) {
  Column col(TypeId::kI64, /*block_size=*/1000);
  DataGen gen(1);
  auto v = gen.UniformI64(3500, 0, 100);
  ASSERT_TRUE(col.AppendValues(v.data(), 3500).ok());
  EXPECT_EQ(col.num_rows(), 3500u);
  EXPECT_EQ(col.num_blocks(), 4u);
  EXPECT_EQ(col.block(0).count, 1000u);
  EXPECT_EQ(col.block(3).count, 500u);
}

TEST(ColumnTest, ReadSpansBlocks) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = i * 3;
  ASSERT_TRUE(col.AppendValues(v.data(), 1000).ok());
  std::vector<int64_t> out(250);
  ASSERT_TRUE(col.Read(75, 250, out.data()).ok());
  for (int i = 0; i < 250; ++i) EXPECT_EQ(out[i], (75 + i) * 3);
}

TEST(ColumnTest, ReadPastEndRejected) {
  Column col(TypeId::kI32, 10);
  std::vector<int32_t> v(10, 1);
  ASSERT_TRUE(col.AppendValues(v.data(), 10).ok());
  int32_t out[5];
  EXPECT_TRUE(col.Read(8, 5, out).IsOutOfRange());
}

TEST(ColumnTest, PerBlockSchemesCanDiffer) {
  Column col(TypeId::kI64, 1000);
  DataGen gen(2);
  auto narrow = gen.UniformI64(1000, 0, 50);          // FOR
  auto runs = gen.RunsI64(1000, 5, 20.0);             // RLE
  auto wide = gen.UniformI64(1000, INT64_MIN / 2, INT64_MAX / 2);  // Plain
  ASSERT_TRUE(col.AppendValues(narrow.data(), 1000).ok());
  ASSERT_TRUE(col.AppendValues(runs.data(), 1000).ok());
  ASSERT_TRUE(col.AppendValues(wide.data(), 1000).ok());
  ASSERT_EQ(col.num_blocks(), 3u);
  EXPECT_NE(col.block(0).scheme, col.block(2).scheme);
  auto b0 = col.BlockAt(500);
  auto b2 = col.BlockAt(2500);
  ASSERT_TRUE(b0.ok() && b2.ok());
  EXPECT_EQ(b0.value().first->scheme, col.block(0).scheme);
  EXPECT_EQ(b2.value().first->scheme, col.block(2).scheme);
}

TEST(ColumnTest, ForcedSchemePerBlock) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(100, 7);
  ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kPlain, v.data(), 100).ok());
  ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kRle, v.data(), 100).ok());
  EXPECT_EQ(col.block(0).scheme, Scheme::kPlain);
  EXPECT_EQ(col.block(1).scheme, Scheme::kRle);
}

TEST(ColumnTest, BlockAtFindsOffsets) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(250, 1);
  ASSERT_TRUE(col.AppendValues(v.data(), 250).ok());
  auto b = col.BlockAt(150);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().first, &col.block(1));
  EXPECT_EQ(b.value().second, 50u);
  EXPECT_TRUE(col.BlockAt(250).status().IsOutOfRange());
}

TEST(ColumnTest, CompressionRatioReported) {
  Column col(TypeId::kI64, 4096);
  DataGen gen(3);
  auto v = gen.UniformI64(65536, 0, 100);
  ASSERT_TRUE(col.AppendValues(v.data(), 65536).ok());
  EXPECT_GT(col.CompressionRatio(), 4.0);
}

TEST(ColumnChunkCursorTest, SequentialChunksMatchColumn) {
  Column col(TypeId::kI64, 777);  // deliberately unaligned block size
  std::vector<int64_t> v(5000);
  for (int i = 0; i < 5000; ++i) v[i] = i;
  ASSERT_TRUE(col.AppendValues(v.data(), 5000).ok());

  ColumnChunkCursor cursor(&col);
  std::vector<int64_t> got;
  std::vector<int64_t> buf(1024);
  for (uint64_t row = 0; row < col.num_rows(); row += buf.size()) {
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(buf.size(), col.num_rows() - row));
    ASSERT_TRUE(cursor.ReadAt(row, n, buf.data()).ok());
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(got, v);
  // A forward scan reads each block once, and decodes each value once.
  EXPECT_EQ(cursor.blocks_read(), col.num_blocks());
  EXPECT_EQ(cursor.values_decoded(), col.num_rows());
}

// `rows` values of column type `type` in blocks of `block_size`, each block
// forced to the next of `schemes` in turn. The values come in runs over
// few distinct values, so every scheme can encode them.
Column ForcedSchemeColumn(TypeId type, const std::vector<Scheme>& schemes,
                          uint32_t block_size, uint32_t rows) {
  Column col(type, block_size);
  DataGen gen(17);
  const std::vector<int64_t> wide = gen.RunsI64(rows, 300, 4.0);
  DispatchType(type, [&]<typename T>() {
    // Raw bytes: std::vector<bool> has no data().
    const size_t w = sizeof(T);
    std::vector<uint8_t> values(size_t{rows} * w);
    for (uint32_t i = 0; i < rows; ++i) {
      const T v = static_cast<T>(wide[i] - 150);
      std::memcpy(&values[i * w], &v, w);
    }
    size_t next = 0;
    for (uint32_t begin = 0; begin < rows; begin += block_size) {
      const uint32_t n = std::min(block_size, rows - begin);
      const Scheme scheme = schemes[next++ % schemes.size()];
      Status st = col.AppendBlockWithScheme(scheme, &values[begin * w], n);
      EXPECT_TRUE(st.ok()) << SchemeName(scheme) << ": " << st.ToString();
    }
  });
  return col;
}

TEST(ColumnChunkCursorTest, ReadsMatchColumnReadForEverySchemeAndType) {
  const std::vector<Scheme> int_schemes = {Scheme::kPlain, Scheme::kRle,
                                           Scheme::kDict, Scheme::kFor,
                                           Scheme::kDelta};
  const std::vector<Scheme> float_schemes = {Scheme::kPlain, Scheme::kRle,
                                             Scheme::kDict};
  const uint32_t kBlock = 777;  // unaligned to the 1024-row reads
  const uint32_t kRows = 5000;  // 7 blocks, the last one short
  // Mid-block starts, block-crossing reads, backward jumps, a re-read of
  // the previous block, single rows, and a read ending at the last row.
  const std::vector<std::pair<uint64_t, uint32_t>> reads = {
      {0, 100},    {100, 1024}, {1124, 1024}, {300, 50},  {2000, 1},
      {1999, 2},   {776, 2},    {3000, 1900}, {10, 4980}, {4999, 1},
      {4000, 1000}, {4000, 10}, {0, kRows}};
  for (TypeId type : {TypeId::kI64, TypeId::kI32, TypeId::kF64}) {
    const auto& all = IsFloatType(type) ? float_schemes : int_schemes;
    // One column per scheme, then one that changes scheme every block.
    std::vector<std::vector<Scheme>> layouts;
    for (Scheme s : all) layouts.push_back({s});
    layouts.push_back(all);
    for (const std::vector<Scheme>& layout : layouts) {
      const Column col = ForcedSchemeColumn(type, layout, kBlock, kRows);
      ASSERT_EQ(col.num_rows(), kRows);
      const std::string what = std::string(TypeName(type)) + " " +
                               SchemeName(layout[0]) +
                               (layout.size() > 1 ? " (mixed)" : "");
      const size_t w = TypeWidth(type);
      ColumnChunkCursor cursor(&col);
      for (const auto& [row, len] : reads) {
        std::vector<uint8_t> got(len * w), want(len * w);
        Scheme scheme = Scheme::kPlain;
        ASSERT_TRUE(cursor.ReadAt(row, len, got.data(), &scheme).ok())
            << what << " read " << row << "+" << len;
        ASSERT_TRUE(col.Read(row, len, want.data()).ok());
        EXPECT_EQ(got, want) << what << " read " << row << "+" << len;
        EXPECT_EQ(scheme, col.block(row / kBlock).scheme)
            << what << " read " << row << "+" << len;
      }
    }
  }
}

TEST(ColumnChunkCursorTest, DecodesOnlyTheRowsItReads) {
  // One 64k-value FOR block: a 1,024-row read in its middle decodes those
  // 1,024 values, not the block.
  Column col(TypeId::kI64);
  DataGen gen(5);
  const std::vector<int64_t> v = gen.UniformI64(kDefaultBlockSize, 1000, 2000);
  ASSERT_TRUE(
      col.AppendBlockWithScheme(Scheme::kFor, v.data(), kDefaultBlockSize)
          .ok());
  ColumnChunkCursor cursor(&col);
  std::vector<int64_t> out(1024);
  ASSERT_TRUE(cursor.ReadAt(30'000, 1024, out.data()).ok());
  EXPECT_EQ(cursor.values_decoded(), 1024u);
  EXPECT_EQ(cursor.blocks_read(), 1u);
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], v[30'000 + i]);
}

TEST(ColumnChunkCursorTest, DeltaAndRleBlocksDecodeOnceForTheirReads) {
  // Range decodes of Delta and RLE blocks run from the block start, so the
  // cursor decodes such a block once and serves its reads from the cache.
  for (Scheme scheme : {Scheme::kDelta, Scheme::kRle}) {
    const Column col = ForcedSchemeColumn(TypeId::kI64, {scheme}, 4096, 8192);
    ColumnChunkCursor cursor(&col);
    std::vector<int64_t> got(1024), want(1024);
    for (uint64_t row : {1000, 2024, 500}) {
      ASSERT_TRUE(cursor.ReadAt(row, 1024, got.data()).ok());
      ASSERT_TRUE(col.Read(row, 1024, want.data()).ok());
      EXPECT_EQ(got, want) << SchemeName(scheme) << " row " << row;
    }
    EXPECT_EQ(cursor.values_decoded(), 4096u) << SchemeName(scheme);
    EXPECT_EQ(cursor.blocks_read(), 1u) << SchemeName(scheme);
    // The next block replaces the cached one.
    ASSERT_TRUE(cursor.ReadAt(4096, 1024, got.data()).ok());
    EXPECT_EQ(cursor.values_decoded(), 8192u) << SchemeName(scheme);
    EXPECT_EQ(cursor.blocks_read(), 2u) << SchemeName(scheme);
  }
}

TEST(ColumnChunkCursorTest, ReadPastEndAndUnboundCursorRejected) {
  Column col(TypeId::kI32, 10);
  std::vector<int32_t> v(10, 1);
  ASSERT_TRUE(col.AppendValues(v.data(), 10).ok());
  int32_t out[5];
  ColumnChunkCursor cursor(&col);
  EXPECT_TRUE(cursor.ReadAt(8, 5, out).IsOutOfRange());
  ColumnChunkCursor unbound;
  EXPECT_FALSE(unbound.ReadAt(0, 1, out).ok());
}

TEST(TableTest, SchemaLookupAndRowCount) {
  Schema schema({{"a", TypeId::kI64}, {"b", TypeId::kF64}});
  Table t(schema, 100);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.schema().FieldIndex("b"), 1);
  EXPECT_EQ(t.schema().FieldIndex("zz"), -1);
  std::vector<int64_t> a(50, 1);
  ASSERT_TRUE(t.column(0).AppendValues(a.data(), 50).ok());
  EXPECT_EQ(t.num_rows(), 50u);
  EXPECT_TRUE(t.ColumnByName("a").ok());
  EXPECT_TRUE(t.ColumnByName("c").status().IsNotFound());
}

}  // namespace
}  // namespace avm
