#include "engine/morsel.h"

#include <algorithm>

namespace avm::engine {

std::vector<Morsel> PartitionRows(uint64_t rows, size_t num_workers,
                                  uint64_t morsel_rows, uint32_t align) {
  std::vector<Morsel> morsels;
  if (rows == 0) return morsels;
  if (num_workers == 0) num_workers = 1;
  if (align == 0) align = 1;
  if (morsel_rows == 0) {
    morsel_rows = (rows + num_workers * 4 - 1) / (num_workers * 4);
  }
  // Round up to the chunk size so every morsel but the tail runs whole
  // chunks: chunk boundaries stay morsel-aligned, and each morsel VM's
  // profiled chunks match the others'.
  morsel_rows = ((morsel_rows + align - 1) / align) * align;
  for (uint64_t begin = 0; begin < rows; begin += morsel_rows) {
    Morsel m;
    m.begin = begin;
    m.end = std::min(rows, begin + morsel_rows);
    m.index = morsels.size();
    morsels.push_back(m);
  }
  return morsels;
}

}  // namespace avm::engine
