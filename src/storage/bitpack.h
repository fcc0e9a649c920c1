// Bit-packing of unsigned values at arbitrary widths (0..64 bits).
// Used by the FOR, Dict and Delta compression schemes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bits.h"

namespace avm {

/// Write `width` low bits of `v` at bit offset `bitpos` of `dst`.
/// `dst` must be zero-initialized over the touched range.
inline void WriteBits(uint8_t* dst, size_t bitpos, uint64_t v, uint32_t width) {
  if (width == 0) return;
  if (width < 64) v &= (uint64_t{1} << width) - 1;
  size_t byte = bitpos >> 3;
  unsigned shift = static_cast<unsigned>(bitpos & 7);
  dst[byte] |= static_cast<uint8_t>(v << shift);
  unsigned written = 8 - shift;
  while (written < width) {
    dst[++byte] |= static_cast<uint8_t>(v >> written);
    written += 8;
  }
}

/// Read `width` bits at bit offset `bitpos` of `src`, one byte at a time:
/// touches only the bytes that hold the value. BitUnpackEach's fallback for
/// values its 8-byte load cannot serve.
inline uint64_t ReadBits(const uint8_t* src, size_t bitpos, uint32_t width) {
  if (width == 0) return 0;
  size_t byte = bitpos >> 3;
  unsigned shift = static_cast<unsigned>(bitpos & 7);
  uint64_t v = src[byte] >> shift;
  unsigned got = 8 - shift;
  while (got < width) {
    v |= static_cast<uint64_t>(src[++byte]) << got;
    got += 8;
  }
  return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
}

/// Bytes needed to bit-pack n values at `width` bits (+1 slack byte, part
/// of the stored format).
inline size_t BitPackedBytes(size_t n, uint32_t width) {
  return (n * width + 7) / 8 + 1;
}

/// Append `n` values of `width` bits each to `out`.
inline void BitPack(const uint64_t* values, size_t n, uint32_t width,
                    std::vector<uint8_t>* out) {
  if (width == 0) return;  // all zeros: nothing stored
  const size_t base = out->size();
  out->resize(base + BitPackedBytes(n, width), 0);
  uint8_t* dst = out->data() + base;
  for (size_t i = 0; i < n; ++i) WriteBits(dst, i * width, values[i], width);
}

/// The one reader of bit-packed values: calls `emit(i, value)` for the `n`
/// values starting at value index `first` of the `size`-byte packed buffer
/// `src`, in order. A value up to 57 bits wide (a value starts up to 7 bits
/// into its first byte) is one unaligned 8-byte load at its first byte, a
/// shift and a mask; a value whose 8-byte window would pass the buffer's
/// end, or a wider value, goes through ReadBits. No load leaves
/// [src, src + size).
template <typename Emit> void BitUnpackEach(const uint8_t* src, size_t size,
                                            size_t first, size_t n,
                                            uint32_t width, Emit&& emit) {
  if (width == 0) {  // all zeros: nothing stored
    for (size_t i = 0; i < n; ++i) emit(i, uint64_t{0});
    return;
  }
  size_t i = 0;
  size_t bitpos = first * width;
  if (width <= 57 && size >= 8) {
    // Values whose first byte is at most size - 8 have an in-buffer window.
    const size_t last_word = (8 * (size - 8) + 7) / width;
    const size_t words =
        last_word < first ? 0 : std::min(n, last_word - first + 1);
    const uint64_t mask = (uint64_t{1} << width) - 1;
    for (; i < words; ++i, bitpos += width) {
      uint64_t word = 0;
      std::memcpy(&word, src + (bitpos >> 3), sizeof(word));
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap64(word);
      }
      emit(i, (word >> (bitpos & 7)) & mask);
    }
  }
  for (; i < n; ++i, bitpos += width) emit(i, ReadBits(src, bitpos, width));
}

/// Zigzag-encode a signed value into unsigned (small magnitudes → small).
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Inverse of ZigzagEncode.
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace avm
