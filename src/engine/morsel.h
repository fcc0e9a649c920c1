// Morsel-driven parallelism primitives (Leis et al.-style): the total row
// range is cut into cache-friendly row-range morsels, and engine::Session's
// workers pull them from a shared run queue until it is drained, so skew in
// per-morsel cost self-balances. Each morsel runs the query's one program
// over its row slice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace avm::engine {

/// A contiguous row range [begin, end) of the input relation.
struct Morsel {
  uint64_t begin = 0;
  uint64_t end = 0;
  size_t index = 0;  ///< position in the schedule (0 = first range)

  uint64_t rows() const { return end - begin; }
};

/// Cut [0, rows) into morsels. `morsel_rows == 0` picks a size aiming at
/// ~4 morsels per worker (so stealing can balance skew) and rounds it up to
/// a multiple of `align` (the execution chunk size, keeping chunk boundaries
/// morsel-aligned).
std::vector<Morsel> PartitionRows(uint64_t rows, size_t num_workers,
                                  uint64_t morsel_rows, uint32_t align);

}  // namespace avm::engine
