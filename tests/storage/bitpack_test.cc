#include "storage/bitpack.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "util/rng.h"

namespace avm {
namespace {

class BitPackWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitPackWidthTest, RoundTripsRandomValues) {
  const uint32_t width = GetParam();
  Rng rng(width + 1);
  const size_t n = 257;  // odd size exercises straddling boundaries
  std::vector<uint64_t> values(n);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0}
                  : (width == 0 ? 0 : (uint64_t{1} << width) - 1);
  for (auto& v : values) v = rng.Next() & mask;

  std::vector<uint8_t> packed;
  BitPack(values.data(), n, width, &packed);
  std::vector<uint64_t> decoded(n, 0xdeadbeef);
  BitUnpackEach(packed.data(), packed.size(), 0, n, width,
                [&](size_t i, uint64_t v) { decoded[i] = v; });
  EXPECT_EQ(values, decoded) << "width=" << width;
}

TEST_P(BitPackWidthTest, RandomAccessDecode) {
  const uint32_t width = GetParam();
  if (width == 0) return;
  Rng rng(width * 7 + 3);
  const size_t n = 100;
  std::vector<uint64_t> values(n);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  for (auto& v : values) v = rng.Next() & mask;
  std::vector<uint8_t> packed;
  BitPack(values.data(), n, width, &packed);
  // Decode a middle range only.
  std::vector<uint64_t> part(20);
  BitUnpackEach(packed.data(), packed.size(), 37, 20, width,
                [&](size_t i, uint64_t v) { part[i] = v; });
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(part[i], values[37 + i]);
}

// BitUnpackEach against ReadBits at every width, over a buffer sized to
// the packed bits alone (no slack byte) so an 8-byte load past the last
// value would leave it: windows from value 0, from a mid-byte value, and
// ending at the buffer's last value, where the word loads must fall back.
TEST_P(BitPackWidthTest, WordUnpackMatchesReadBits) {
  const uint32_t width = GetParam();
  Rng rng(width * 13 + 5);
  const size_t n = 203;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0}
                  : (width == 0 ? 0 : (uint64_t{1} << width) - 1);
  std::vector<uint64_t> values(n);
  for (auto& v : values) v = rng.Next() & mask;
  values[0] = mask;  // every width is used in full
  values[n - 1] = mask;
  std::vector<uint8_t> packed;
  BitPack(values.data(), n, width, &packed);

  const size_t size = (n * width + 7) / 8;
  auto exact = std::make_unique<uint8_t[]>(size + 1);  // +1: never empty
  if (size > 0) std::memcpy(exact.get(), packed.data(), size);

  // First value whose bit offset is not a byte boundary (3 when every
  // offset is aligned, i.e. width % 8 == 0).
  size_t mid = 3;
  for (size_t k = 1; k < n; ++k) {
    if ((k * width) % 8 != 0) {
      mid = k;
      break;
    }
  }
  const std::vector<std::pair<size_t, size_t>> windows = {
      {0, n}, {0, 1}, {mid, 40}, {mid, n - mid}, {n - 1, 1}, {n - 9, 9}};
  for (auto [first, len] : windows) {
    std::vector<uint64_t> out(len, 0xdeadbeef);
    size_t next = 0;
    BitUnpackEach(exact.get(), size, first, len, width,
                  [&](size_t i, uint64_t v) {
                    EXPECT_EQ(i, next++);
                    out[i] = v;
                  });
    ASSERT_EQ(next, len);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t want =
          width == 0 ? 0 : ReadBits(exact.get(), (first + i) * width, width);
      ASSERT_EQ(out[i], want) << "width=" << width << " first=" << first
                              << " i=" << i;
      ASSERT_EQ(out[i], values[first + i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthTest,
                         ::testing::Range(0u, 65u));

TEST(BitPackTest, WidthZeroDecodesZeros) {
  std::vector<uint8_t> packed;
  uint64_t v[4] = {0, 0, 0, 0};
  BitPack(v, 4, 0, &packed);
  EXPECT_TRUE(packed.empty());
  uint64_t out[4] = {9, 9, 9, 9};
  BitUnpackEach(packed.data(), packed.size(), 0, 4, 0,
                [&](size_t i, uint64_t v) { out[i] = v; });
  for (uint64_t x : out) EXPECT_EQ(x, 0u);
}

TEST(BitPackTest, AppendsToExistingBuffer) {
  std::vector<uint8_t> buf{0xff, 0xee};
  uint64_t v[2] = {5, 6};
  BitPack(v, 2, 4, &buf);
  EXPECT_EQ(buf[0], 0xff);
  EXPECT_EQ(buf[1], 0xee);
  uint64_t out[2];
  BitUnpackEach(buf.data() + 2, buf.size() - 2, 0, 2, 4,
                [&](size_t i, uint64_t v) { out[i] = v; });
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 6u);
}

TEST(ZigzagTest, RoundTripsSignedValues) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{123456},
                    int64_t{-123456}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(ZigzagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  EXPECT_EQ(ZigzagEncode(2), 4u);
}

}  // namespace
}  // namespace avm
