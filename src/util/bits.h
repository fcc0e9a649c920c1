// Bit manipulation utilities used by compression and hashing.
#pragma once

#include <bit>
#include <cstdint>

namespace avm::bits {

/// Number of bits needed to represent `v` (0 -> 0 bits).
inline uint32_t BitWidth(uint64_t v) {
  return v == 0 ? 0u : static_cast<uint32_t>(64 - std::countl_zero(v));
}

/// Next power of two >= v (v=0 -> 1).
inline uint64_t NextPow2(uint64_t v) {
  if (v <= 1) return 1;
  return uint64_t{1} << (64 - std::countl_zero(v - 1));
}

}  // namespace avm::bits
