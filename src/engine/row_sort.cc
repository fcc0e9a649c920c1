#include "engine/row_sort.h"

#include <array>
#include <cstring>
#include <limits>
#include <numeric>

namespace avm::engine {

namespace {

/// Stable LSD radix sort of the images `img`: leaves in `perm` the rows
/// 0..n-1 in ascending image order, ties in row order. One counting-sort
/// pass per 8-bit digit, least significant first, skipping every digit on
/// which all images agree. `img` is scratch. Returns false, with `perm`
/// untouched, when every image is equal, so input order is already sorted.
template <typename U, typename P>
bool RadixOrder(std::vector<U>& img, std::vector<P>& perm) {
  const size_t n = img.size();
  U differ = 0;
  for (U v : img) differ |= static_cast<U>(v ^ img[0]);
  if (differ == 0) return false;
  std::array<unsigned, sizeof(U)> shifts{};
  size_t passes = 0;
  for (unsigned d = 0; d < sizeof(U); ++d) {
    if (((differ >> (8 * d)) & 0xff) != 0) shifts[passes++] = 8 * d;
  }
  std::vector<std::array<size_t, 256>> counts(passes);
  for (U v : img) {
    for (size_t p = 0; p < passes; ++p) ++counts[p][(v >> shifts[p]) & 0xff];
  }
  std::iota(perm.begin(), perm.end(), P{0});
  std::vector<U> img_out(n);
  std::vector<P> perm_out(n);
  for (size_t p = 0; p < passes; ++p) {
    std::array<size_t, 256>& next = counts[p];  // becomes each digit's slot
    size_t at = 0;
    for (size_t& c : next) at += std::exchange(c, at);
    const unsigned shift = shifts[p];
    for (size_t r = 0; r < n; ++r) {
      const size_t slot = next[(img[r] >> shift) & 0xff]++;
      img_out[slot] = img[r];
      perm_out[slot] = perm[r];
    }
    img.swap(img_out);
    perm.swap(perm_out);
  }
  return true;
}

/// SortRows with permutation entries of type P, which must hold `rows`.
template <typename P>
void SortRowsWith(const std::vector<TypeId>& types,
                  const std::vector<uint8_t*>& bases, size_t key, SortDir dir,
                  uint64_t rows) {
  std::vector<P> perm(rows);
  const bool moved = DispatchType(types[key], [&]<typename T>() {
    std::vector<KeyImageOf<T>> img(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      T v;
      std::memcpy(&v, bases[key] + r * sizeof(T), sizeof(T));
      img[r] = KeyImage(v, dir);
    }
    return RadixOrder(img, perm);
  });
  if (!moved) return;
  std::vector<uint8_t> tmp;
  for (size_t c = 0; c < bases.size(); ++c) {
    DispatchType(types[c], [&]<typename T>() {
      tmp.resize(rows * sizeof(T));
      for (uint64_t r = 0; r < rows; ++r) {
        std::memcpy(&tmp[r * sizeof(T)], bases[c] + perm[r] * sizeof(T),
                    sizeof(T));
      }
    });
    std::memcpy(bases[c], tmp.data(), tmp.size());
  }
}

}  // namespace

void SortRows(const std::vector<TypeId>& types,
              const std::vector<uint8_t*>& bases, size_t key, SortDir dir,
              uint64_t rows) {
  if (rows < 2) return;
  if (rows <= std::numeric_limits<uint32_t>::max()) {
    SortRowsWith<uint32_t>(types, bases, key, dir, rows);
  } else {
    SortRowsWith<uint64_t>(types, bases, key, dir, rows);
  }
}

}  // namespace avm::engine
