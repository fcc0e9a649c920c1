// Block compression schemes.
//
// The paper's motivating pain point: an engine that wants specialized code
// per combination of (compression scheme × type × operation) cannot
// pre-generate all variants — the adaptive VM instead specializes for the
// combination it currently observes and falls back when a block's scheme
// changes. This module provides the scheme zoo that creates that situation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace avm {

/// Block compression scheme: how a Block's payload encodes its values.
enum class Scheme : uint8_t {
  kPlain = 0,  ///< raw values
  kRle,        ///< (value, run-length) pairs
  kDict,       ///< dictionary + bit-packed codes
  kFor,        ///< frame-of-reference + bit-packed deltas (integers)
  kDelta,      ///< first value + zigzag bit-packed successive deltas
};

constexpr size_t kNumSchemes = 5;
/// Lower-case scheme name ("plain", "rle", "dict", "for", "delta").
const char* SchemeName(Scheme s);

/// Per-block statistics, collected at encode time. The compact-data-types
/// adaptation and the scheme chooser both consult them.
struct BlockStats {
  int64_t min_i = 0;
  int64_t max_i = 0;
  double min_f = 0;
  double max_f = 0;
  uint32_t distinct = 0;     ///< exact for <= 4096 distinct, else saturated
  double avg_run_len = 1.0;  ///< mean run length of equal adjacent values
  bool sorted = false;
};

/// An immutable encoded block of `count` values of one column.
struct Block {
  Scheme scheme = Scheme::kPlain;
  TypeId type = TypeId::kI64;
  uint32_t count = 0;
  BlockStats stats;
  std::vector<uint8_t> data;  ///< scheme-specific payload

  // Scheme-specific parameters.
  int64_t for_ref = 0;       ///< kFor: reference (minimum) value
  uint32_t bit_width = 0;    ///< kFor/kDict/kDelta: packed width
  uint32_t dict_size = 0;    ///< kDict: number of dictionary entries
  uint32_t run_count = 0;    ///< kRle: number of runs
  int64_t delta_first = 0;   ///< kDelta: first value

  size_t EncodedBytes() const { return data.size() + sizeof(Block); }
  double CompressionRatio() const {
    size_t raw = static_cast<size_t>(count) * TypeWidth(type);
    return raw == 0 ? 1.0 : static_cast<double>(raw) /
                                static_cast<double>(data.size() + 32);
  }
};

/// Compute statistics over `n` values of type `t`.
BlockStats ComputeStats(TypeId t, const void* values, uint32_t n);

/// Pick the best scheme for the given stats (integers only get kFor/kDelta).
Scheme ChooseScheme(TypeId t, const BlockStats& stats, uint32_t n);

/// Encode `n` values into a block using `scheme`.
Result<Block> EncodeBlock(Scheme scheme, TypeId t, const void* values,
                          uint32_t n);

/// Encode with automatically chosen scheme.
Result<Block> EncodeBlockAuto(TypeId t, const void* values, uint32_t n);

/// Decode the whole block into `out` (caller provides count*width bytes).
Status DecodeBlock(const Block& block, void* out);

/// Decode `len` values starting at `offset`.
Status DecodeBlockRange(const Block& block, uint32_t offset, uint32_t len,
                        void* out);

/// Decode `len` FOR deltas (without adding the reference) starting at
/// `offset` into uint32 (requires scheme == kFor and bit_width <= 32). Used
/// by compressed-execution JIT traces (paper §III-C), which operate
/// directly on narrow deltas plus the block reference.
Status DecodeForDeltasRange32(const Block& block, uint32_t offset,
                              uint32_t len, uint32_t* out);

}  // namespace avm
