// The row sort of ORDER BY (engine/row_sort.h): for every key type and
// both directions, the key image orders exactly as KeyBefore over each
// type's special values (quiet, signalling, negative and payload NaNs,
// signed zeros, infinities, the smallest denormals, integer limits,
// bools), and SortRows — a radix sort over those images — equals a
// std::stable_sort by KeyBefore bit for bit, ties in input order.
#include "engine/row_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace avm::engine {
namespace {

/// The values whose order a key image most easily gets wrong.
template <typename T>
std::vector<T> SpecialValues() {
  using L = std::numeric_limits<T>;
  if constexpr (std::is_same_v<T, bool>) {
    return {false, true};
  } else if constexpr (std::is_integral_v<T>) {
    return {L::min(),      static_cast<T>(L::min() + 1), static_cast<T>(-1),
            T{0},          T{1},
            static_cast<T>(L::max() - 1), L::max()};
  } else {
    using U = KeyImageOf<T>;
    constexpr U kSign = U{1} << (8 * sizeof(U) - 1);
    const U quiet = std::bit_cast<U>(L::quiet_NaN());
    return {L::quiet_NaN(),
            L::signaling_NaN(),
            std::bit_cast<T>(static_cast<U>(quiet | kSign)),   // negative
            std::bit_cast<T>(static_cast<U>(quiet | 0x5a5)),   // payload
            T{0},
            -T{0},
            L::infinity(),
            -L::infinity(),
            L::denorm_min(),
            -L::denorm_min(),
            L::min(),
            L::lowest(),
            L::max(),
            T{1},
            T{-1}};
  }
}

template <typename T>
std::string Bits(T v) {
  KeyImageOf<T> bits;
  std::memcpy(&bits, &v, sizeof(T));
  return std::to_string(static_cast<uint64_t>(bits));
}

/// How a sort test draws its keys.
enum class Keys {
  kWide,        // any bit pattern, 1 in 8 a special value
  kNarrow,      // 100 small values, 1 in 8 a special value
  kNarrowOnly,  // 100 small values: most digits agree and are skipped
  kEquivalent,  // one image: every NaN for floats, else one value
};

template <typename T>
std::vector<uint8_t> DrawKeys(Keys kind, uint64_t rows, Rng& rng) {
  const std::vector<T> special = SpecialValues<T>();
  std::vector<uint8_t> bytes(rows * sizeof(T));
  for (uint64_t r = 0; r < rows; ++r) {
    const uint64_t x = rng.Next();
    T v{};
    if (kind == Keys::kEquivalent) {
      v = std::is_floating_point_v<T> ? special[x % 4] : special[0];
    } else if (kind != Keys::kNarrowOnly && x % 8 == 0) {
      v = special[(x >> 8) % special.size()];
    } else if (std::is_same_v<T, bool>) {
      v = static_cast<T>((x >> 8) & 1);
    } else if (kind == Keys::kWide) {
      const auto pattern = static_cast<KeyImageOf<T>>(x >> 8);
      std::memcpy(&v, &pattern, sizeof(T));
    } else {
      v = static_cast<T>((x >> 8) % 100);
      if constexpr (std::is_floating_point_v<T>) v = (v - 50) / 4;
    }
    std::memcpy(&bytes[r * sizeof(T)], &v, sizeof(T));
  }
  return bytes;
}

template <typename T>
class RowSortTest : public ::testing::Test {};

using KeyTypes =
    ::testing::Types<bool, int8_t, int16_t, int32_t, int64_t, float, double>;
TYPED_TEST_SUITE(RowSortTest, KeyTypes);

TYPED_TEST(RowSortTest, ImageOrdersExactlyAsKeyBefore) {
  using T = TypeParam;
  const std::vector<T> values = SpecialValues<T>();
  for (SortDir dir : {SortDir::kAscending, SortDir::kDescending}) {
    for (T a : values) {
      for (T b : values) {
        EXPECT_EQ(KeyBefore(a, b, dir), KeyImage(a, dir) < KeyImage(b, dir))
            << "a=" << Bits(a) << " b=" << Bits(b)
            << " descending=" << (dir == SortDir::kDescending);
      }
    }
  }
}

TYPED_TEST(RowSortTest, SortRowsEqualsStableSortBitForBit) {
  using T = TypeParam;
  const TypeId type = TypeIdOf<T>::value;
  Rng rng(31);
  for (Keys kind : {Keys::kWide, Keys::kNarrow, Keys::kNarrowOnly,
                    Keys::kEquivalent}) {
    for (SortDir dir : {SortDir::kAscending, SortDir::kDescending}) {
      for (uint64_t rows : {0, 1, 2, 255, 256, 257, 65'537}) {
        SCOPED_TRACE("keys " + std::to_string(static_cast<int>(kind)) +
                     (dir == SortDir::kDescending ? ", descending, " : ", ") +
                     std::to_string(rows) + " rows");
        // Columns: an i64 tag (the input row), the key, an i16 tag.
        std::vector<uint8_t> key = DrawKeys<T>(kind, rows, rng);
        std::vector<int64_t> tag(rows);
        std::vector<int16_t> tag16(rows);
        std::iota(tag.begin(), tag.end(), int64_t{0});
        for (uint64_t r = 0; r < rows; ++r) {
          tag16[r] = static_cast<int16_t>(r * 40'503);
        }
        auto key_at = [&](uint64_t r) {
          T v;
          std::memcpy(&v, &key[r * sizeof(T)], sizeof(T));
          return v;
        };
        std::vector<uint64_t> order(rows);
        std::iota(order.begin(), order.end(), uint64_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](uint64_t a, uint64_t b) {
                           return KeyBefore(key_at(a), key_at(b), dir);
                         });
        std::vector<uint8_t> want_key(key.size());
        std::vector<int64_t> want_tag(rows);
        std::vector<int16_t> want_tag16(rows);
        for (uint64_t r = 0; r < rows; ++r) {
          std::memcpy(&want_key[r * sizeof(T)], &key[order[r] * sizeof(T)],
                      sizeof(T));
          want_tag[r] = tag[order[r]];
          want_tag16[r] = tag16[order[r]];
        }

        SortRows({TypeId::kI64, type, TypeId::kI16},
                 {reinterpret_cast<uint8_t*>(tag.data()), key.data(),
                  reinterpret_cast<uint8_t*>(tag16.data())},
                 /*key=*/1, dir, rows);
        EXPECT_EQ(key, want_key);
        EXPECT_EQ(tag, want_tag);
        EXPECT_EQ(tag16, want_tag16);
      }
    }
  }
}

}  // namespace
}  // namespace avm::engine
