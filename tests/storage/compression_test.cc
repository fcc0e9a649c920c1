#include "storage/compression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "storage/datagen.h"
#include "util/rng.h"

namespace avm {
namespace {

// ---------------------------------------------------------------------------
// Round-trip property: for every applicable (scheme, distribution) pair,
// decode(encode(v)) == v, full-block and arbitrary sub-ranges.
// ---------------------------------------------------------------------------

struct SchemeCase {
  Scheme scheme;
  const char* data_kind;  // uniform | runs | sorted | narrow | fewdistinct
};

class IntSchemeRoundTrip
    : public ::testing::TestWithParam<std::tuple<Scheme, const char*>> {};

std::vector<int64_t> MakeData(const char* kind, size_t n) {
  DataGen gen(1234);
  if (std::string(kind) == "uniform") return gen.UniformI64(n, -1e9, 1e9);
  if (std::string(kind) == "runs") return gen.RunsI64(n, 50, 8.0);
  if (std::string(kind) == "sorted") return gen.SortedI64(n, 0, 1e12);
  if (std::string(kind) == "narrow") return gen.UniformI64(n, 1000, 1100);
  return gen.UniformI64(n, 0, 15);  // fewdistinct
}

TEST_P(IntSchemeRoundTrip, FullBlock) {
  auto [scheme, kind] = GetParam();
  auto values = MakeData(kind, 4096);
  auto blk = EncodeBlock(scheme, TypeId::kI64, values.data(), 4096);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  std::vector<int64_t> out(4096);
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(values, out) << SchemeName(scheme) << " over " << kind;
}

TEST_P(IntSchemeRoundTrip, SubRanges) {
  auto [scheme, kind] = GetParam();
  auto values = MakeData(kind, 1000);
  auto blk = EncodeBlock(scheme, TypeId::kI64, values.data(), 1000);
  ASSERT_TRUE(blk.ok());
  for (auto [off, len] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 1}, {999, 1}, {17, 100}, {500, 500}, {0, 1000}}) {
    std::vector<int64_t> out(len);
    ASSERT_TRUE(DecodeBlockRange(blk.value(), off, len, out.data()).ok());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], values[off + i])
          << SchemeName(scheme) << " " << kind << " off=" << off << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, IntSchemeRoundTrip,
    ::testing::Combine(::testing::Values(Scheme::kPlain, Scheme::kRle,
                                         Scheme::kDict, Scheme::kFor,
                                         Scheme::kDelta),
                       ::testing::Values("uniform", "runs", "sorted", "narrow",
                                         "fewdistinct")));

// Per-type round trip through the auto-chosen scheme.
class TypedAutoRoundTrip : public ::testing::TestWithParam<TypeId> {};

TEST_P(TypedAutoRoundTrip, AutoEncodeDecodes) {
  TypeId t = GetParam();
  const uint32_t n = 2048;
  DataGen gen(99);
  auto wide = gen.UniformI64(n, -100, 100);
  std::vector<uint8_t> raw(n * TypeWidth(t));
  DispatchType(t, [&]<typename T>() {
    if constexpr (std::is_same_v<T, bool>) {
      auto* p = reinterpret_cast<int8_t*>(raw.data());
      for (uint32_t i = 0; i < n; ++i) p[i] = wide[i] > 0 ? 1 : 0;
    } else {
      auto* p = reinterpret_cast<T*>(raw.data());
      for (uint32_t i = 0; i < n; ++i) p[i] = static_cast<T>(wide[i]);
    }
  });
  auto blk = EncodeBlockAuto(t, raw.data(), n);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  std::vector<uint8_t> out(raw.size());
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(raw, out) << TypeName(t) << " via "
                      << SchemeName(blk.value().scheme);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TypedAutoRoundTrip,
                         ::testing::Values(TypeId::kBool, TypeId::kI8,
                                           TypeId::kI16, TypeId::kI32,
                                           TypeId::kI64, TypeId::kF32,
                                           TypeId::kF64));

// ---------------------------------------------------------------------------
// Stats & scheme choice
// ---------------------------------------------------------------------------

TEST(StatsTest, MinMaxSortedRuns) {
  std::vector<int64_t> v{1, 1, 1, 2, 2, 3};
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 6);
  EXPECT_EQ(s.min_i, 1);
  EXPECT_EQ(s.max_i, 3);
  EXPECT_TRUE(s.sorted);
  EXPECT_EQ(s.distinct, 3u);
  EXPECT_DOUBLE_EQ(s.avg_run_len, 2.0);
}

TEST(StatsTest, UnsortedDetected) {
  std::vector<int64_t> v{3, 1, 2};
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 3);
  EXPECT_FALSE(s.sorted);
}

TEST(SchemeChoiceTest, LongRunsPickRle) {
  DataGen gen(1);
  auto v = gen.RunsI64(4096, 10, 16.0);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kRle);
}

TEST(SchemeChoiceTest, NarrowRangePicksFor) {
  DataGen gen(2);
  auto v = gen.UniformI64(4096, 1000000, 1000250);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kFor);
}

TEST(SchemeChoiceTest, SortedPicksDelta) {
  DataGen gen(3);
  auto v = gen.SortedI64(4096, 0, int64_t{1} << 40);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kDelta);
}

TEST(SchemeChoiceTest, WideRandomPicksPlainOrDict) {
  DataGen gen(4);
  auto v = gen.UniformI64(4096, INT64_MIN / 2, INT64_MAX / 2);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kPlain);
}

TEST(CompressionRatioTest, ForBeatsPlainOnNarrowData) {
  DataGen gen(5);
  auto v = gen.UniformI64(65536, 0, 255);
  auto plain = EncodeBlock(Scheme::kPlain, TypeId::kI64, v.data(), 65536);
  auto forb = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 65536);
  ASSERT_TRUE(plain.ok() && forb.ok());
  EXPECT_LT(forb.value().data.size(), plain.value().data.size() / 4);
}

// ---------------------------------------------------------------------------
// Compressed-execution accessors
// ---------------------------------------------------------------------------

TEST(ForAccessorTest, Range32) {
  DataGen gen(6);
  auto v = gen.UniformI64(1000, 5000, 9000);
  auto blk = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 1000);
  ASSERT_TRUE(blk.ok());
  ASSERT_LE(blk.value().bit_width, 32u);
  std::vector<uint32_t> d(100);
  ASSERT_TRUE(DecodeForDeltasRange32(blk.value(), 50, 100, d.data()).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(blk.value().for_ref + static_cast<int64_t>(d[i]), v[50 + i]);
  }
}

TEST(ForAccessorTest, RejectsWrongScheme) {
  std::vector<int64_t> v{1, 2, 3};
  auto blk = EncodeBlock(Scheme::kPlain, TypeId::kI64, v.data(), 3);
  std::vector<uint32_t> d(3);
  EXPECT_TRUE(
      DecodeForDeltasRange32(blk.value(), 0, 3, d.data()).IsInvalidArgument());
}

TEST(DecodeRangeTest, OutOfRangeRejected) {
  std::vector<int64_t> v{1, 2, 3};
  auto blk = EncodeBlock(Scheme::kPlain, TypeId::kI64, v.data(), 3);
  int64_t out[4];
  EXPECT_TRUE(DecodeBlockRange(blk.value(), 2, 2, out).IsOutOfRange());
}

TEST(FloatTest, RleAndDictRoundTrip) {
  std::vector<double> v{1.5, 1.5, 2.5, 2.5, 2.5, 1.5};
  for (Scheme s : {Scheme::kRle, Scheme::kDict, Scheme::kPlain}) {
    auto blk = EncodeBlock(s, TypeId::kF64, v.data(), 6);
    ASSERT_TRUE(blk.ok()) << SchemeName(s);
    std::vector<double> out(6);
    ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
    EXPECT_EQ(v, out) << SchemeName(s);
  }
}

// Dict and RLE keep a float block's values bit for bit: -0.0 next to +0.0
// (equal under ==) and NaNs (unequal to themselves), one with a payload.
template <typename T>
void ExpectFloatBitsRoundTrip() {
  using Bits = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;
  const T qnan = std::numeric_limits<T>::quiet_NaN();
  const T payload_nan =
      std::bit_cast<T>(static_cast<Bits>(std::bit_cast<Bits>(qnan) | 0x5));
  const std::vector<T> v{T(-0.0), T(0.0),    T(0.0),      T(-0.0),
                         qnan,    qnan,      payload_nan, payload_nan,
                         T(1.5),  T(-0.0),   payload_nan, qnan};
  const uint32_t n = static_cast<uint32_t>(v.size());
  const TypeId type = sizeof(T) == 4 ? TypeId::kF32 : TypeId::kF64;
  for (Scheme s : {Scheme::kDict, Scheme::kRle}) {
    auto blk = EncodeBlock(s, type, v.data(), n);
    ASSERT_TRUE(blk.ok()) << SchemeName(s);
    std::vector<T> out(n);
    ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
    EXPECT_EQ(std::memcmp(v.data(), out.data(), n * sizeof(T)), 0)
        << SchemeName(s) << " " << TypeName(type);
  }
}

TEST(FloatTest, DictAndRleKeepZeroSignsAndNaNsBitForBit) {
  ExpectFloatBitsRoundTrip<float>();
  ExpectFloatBitsRoundTrip<double>();
}

// Every integer column type under every bit-packing and run scheme decodes
// windows that reach the block's end — where the unpacker's 8-byte loads
// fall back to byte reads — straight into the column type. `T` is the
// column's storage type (int8_t for bool).
template <typename T>
void ExpectTypedWindowsRoundTrip(TypeId type, int64_t lo, int64_t hi) {
  constexpr uint32_t kN = 1000;
  Rng rng(static_cast<uint64_t>(type) + 11);
  std::vector<T> v(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    // Runs of 3 keep RLE meaningful; the spread exercises every width.
    v[i] = i % 3 == 0 ? static_cast<T>(rng.NextInRange(lo, hi)) : v[i - 1];
  }
  for (Scheme s : {Scheme::kFor, Scheme::kDict, Scheme::kDelta, Scheme::kRle}) {
    auto blk = EncodeBlock(s, type, v.data(), kN);
    ASSERT_TRUE(blk.ok()) << SchemeName(s) << " " << TypeName(type);
    for (uint32_t len : {1u, 7u, 64u, 333u, kN}) {
      for (uint32_t off : {0u, kN - len}) {
        std::vector<T> out(len);
        ASSERT_TRUE(DecodeBlockRange(blk.value(), off, len, out.data()).ok());
        for (uint32_t i = 0; i < len; ++i) {
          ASSERT_EQ(out[i], v[off + i])
              << SchemeName(s) << " " << TypeName(type) << " off=" << off
              << " len=" << len << " i=" << i;
        }
      }
    }
  }
}

TEST(TypedDecodeTest, EveryIntegerTypeAndSchemeRoundTripsToBlockEnd) {
  ExpectTypedWindowsRoundTrip<int8_t>(TypeId::kBool, 0, 1);
  ExpectTypedWindowsRoundTrip<int8_t>(TypeId::kI8, INT8_MIN, INT8_MAX);
  ExpectTypedWindowsRoundTrip<int16_t>(TypeId::kI16, INT16_MIN, INT16_MAX);
  ExpectTypedWindowsRoundTrip<int32_t>(TypeId::kI32, INT32_MIN, INT32_MAX);
  ExpectTypedWindowsRoundTrip<int64_t>(TypeId::kI64, INT64_MIN / 4,
                                       INT64_MAX / 4);
}

TEST(FloatTest, ForRejectedForFloats) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_FALSE(EncodeBlock(Scheme::kFor, TypeId::kF64, v.data(), 2).ok());
}

TEST(EdgeTest, EmptyBlock) {
  auto blk = EncodeBlock(Scheme::kPlain, TypeId::kI64, nullptr, 0);
  ASSERT_TRUE(blk.ok());
  EXPECT_EQ(blk.value().count, 0u);
}

TEST(EdgeTest, SingleValueAllSchemes) {
  int64_t v = -42;
  for (Scheme s : {Scheme::kPlain, Scheme::kRle, Scheme::kDict, Scheme::kFor,
                   Scheme::kDelta}) {
    auto blk = EncodeBlock(s, TypeId::kI64, &v, 1);
    ASSERT_TRUE(blk.ok()) << SchemeName(s);
    int64_t out = 0;
    ASSERT_TRUE(DecodeBlock(blk.value(), &out).ok());
    EXPECT_EQ(out, -42) << SchemeName(s);
  }
}

TEST(EdgeTest, ExtremeValuesFor) {
  std::vector<int64_t> v{INT64_MIN, INT64_MAX};
  auto blk = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 2);
  ASSERT_TRUE(blk.ok());
  std::vector<int64_t> out(2);
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(v, out);
}

// Neighbours more than INT64_MAX apart (as in a sorted block spanning the
// i64 range, which the auto chooser encodes as Delta): the differences
// must wrap, not overflow (UBSan reports the overflow).
TEST(EdgeTest, ExtremeValuesDelta) {
  std::vector<int64_t> v{INT64_MIN, -1, INT64_MAX, INT64_MIN, 0};
  auto blk = EncodeBlock(Scheme::kDelta, TypeId::kI64, v.data(), 5);
  ASSERT_TRUE(blk.ok());
  std::vector<int64_t> out(5);
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(v, out);
}

}  // namespace
}  // namespace avm
