// The row output's key order and row sort (docs/SPILL.md §5): the one
// ORDER BY key comparison (KeyBefore), the unsigned key image that orders
// exactly as it does (KeyImage), and the one row sort (SortRows), a stable
// LSD radix sort over those images. The run merge and its split positions
// compare with KeyBefore; the sort compares images; the two agree on every
// pair of keys (tests/engine/row_sort_test.cc).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/query_builder.h"
#include "storage/types.h"

namespace avm::engine {

/// The one ORDER BY key comparison: whether key `a` sorts strictly before
/// key `b` in direction `dir`. Ascending order is `<` for integers and
/// bools (false before true); for floats every NaN sorts after every
/// number and all NaNs are equivalent, a strict weak ordering even on
/// dirty data. Descending reverses it.
template <typename T>
bool KeyBefore(T a, T b, SortDir dir) {
  if (dir == SortDir::kDescending) std::swap(a, b);
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(a)) return false;
    if (std::isnan(b)) return true;
  }
  return a < b;
}

/// Unsigned integer as wide as key type T: the type of T's key images.
template <typename T>
using KeyImageOf = std::conditional_t<
    sizeof(T) == 1, uint8_t,
    std::conditional_t<sizeof(T) == 2, uint16_t,
                       std::conditional_t<sizeof(T) == 4, uint32_t,
                                          uint64_t>>>;

/// Order-preserving image of key `v`: KeyBefore(a, b, dir) holds exactly
/// when KeyImage(a, dir) < KeyImage(b, dir), so equivalent keys share one
/// image. Integers flip the sign bit; bools are 0 or 1; floats fold -0.0
/// into +0.0 and map every NaN to the largest image, then invert negative
/// values and set the sign bit of the others. Descending complements the
/// image.
template <typename T>
KeyImageOf<T> KeyImage(T v, SortDir dir) {
  using U = KeyImageOf<T>;
  constexpr U kSign = U{1} << (8 * sizeof(U) - 1);
  U image;
  if constexpr (std::is_same_v<T, bool>) {
    image = v ? 1 : 0;
  } else if constexpr (std::is_integral_v<T>) {
    image = static_cast<U>(static_cast<U>(v) ^ kSign);
  } else if (std::isnan(v)) {
    image = static_cast<U>(~U{0});
  } else {
    const U bits = std::bit_cast<U>(v == 0 ? T{0} : v);
    image = (bits & kSign) != 0 ? static_cast<U>(~bits) : bits | kSign;
  }
  return dir == SortDir::kDescending ? static_cast<U>(~image) : image;
}

/// The one row sort of ORDER BY, for per-morsel output windows and for
/// grouped result rows: stably sorts `rows` rows stored column-wise at
/// `bases` (column c typed types[c]) by column `key` in direction `dir`.
/// Ties keep input order, so merging sorted runs in input order equals one
/// global stable sort. A stable LSD radix sort over the keys' images, one
/// pass per 8-bit digit on which the images differ; every column then
/// moves through the resulting permutation.
void SortRows(const std::vector<TypeId>& types,
              const std::vector<uint8_t*>& bases, size_t key, SortDir dir,
              uint64_t rows);

}  // namespace avm::engine
