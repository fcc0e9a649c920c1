// Block-partitioned columns. Compression schemes may differ block-to-block,
// which is exactly the situation the paper's adaptive VM must handle
// (specialized code is valid only while the scheme combination holds).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/compression.h"
#include "storage/vector.h"
#include "util/status.h"

namespace avm {

/// Default number of values per block.
constexpr uint32_t kDefaultBlockSize = 64 * 1024;

/// A compressed, block-partitioned column.
class Column {
 public:
  explicit Column(TypeId type, uint32_t block_size = kDefaultBlockSize)
      : type_(type), block_size_(block_size) {}

  TypeId type() const { return type_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_blocks() const { return blocks_.size(); }
  uint32_t block_size() const { return block_size_; }
  const Block& block(size_t i) const { return blocks_[i]; }

  /// Append `n` raw values, splitting into blocks and choosing a scheme per
  /// block automatically.
  Status AppendValues(const void* values, uint32_t n);

  /// Append `n` raw values as a single block with a forced scheme.
  Status AppendBlockWithScheme(Scheme scheme, const void* values, uint32_t n);

  /// Decode `len` values starting at global row `row` into `out`.
  Status Read(uint64_t row, uint32_t len, void* out) const;

  /// Block containing `row`, plus the row's offset within it.
  Result<std::pair<const Block*, uint32_t>> BlockAt(uint64_t row) const;

  /// Total encoded payload bytes across blocks.
  size_t EncodedBytes() const;
  double CompressionRatio() const;

 private:
  TypeId type_;
  uint32_t block_size_;
  uint64_t num_rows_ = 0;
  std::vector<Block> blocks_;
};

/// Seekable reader of the streamed-scan path: serves arbitrary
/// [row, row+len) reads of a compressed column, decoding only the rows it
/// reads. Plain, FOR and Dict blocks decode the requested range straight
/// into the caller's buffer. Delta and RLE blocks, whose range decode runs
/// from the block start, decode once into a one-block cache that serves
/// every later read of the same block. Reads walking forward find their
/// block from the previous read's, so a scan never re-walks the column.
class ColumnChunkCursor {
 public:
  /// Default-constructed cursors stream nothing until assigned.
  ColumnChunkCursor() = default;
  /// Stream from `column` (not owned; must outlive the cursor).
  explicit ColumnChunkCursor(const Column* column) : column_(column) {}

  /// Column this cursor streams from (null when default-constructed).
  const Column* column() const { return column_; }

  /// Decode `len` values starting at global row `row` into `out`, reporting
  /// the scheme of the block the read started in (so the VM can detect
  /// situation changes).
  Status ReadAt(uint64_t row, uint32_t len, void* out,
                Scheme* scheme = nullptr);

  /// Blocks the cursor's reads came from, a block counted again only when
  /// a read of another block came in between: a forward scan counts every
  /// block it touches once (surfaced as ExecReport::chunks_streamed).
  uint64_t blocks_read() const { return blocks_read_; }

  /// Values decoded so far: the rows read from Plain, FOR and Dict blocks,
  /// plus every value of each Delta or RLE block decoded into the cache.
  uint64_t values_decoded() const { return values_decoded_; }

 private:
  /// Decode rows [off, off+len) of block `bi` into `dst`.
  Status ReadBlockRange(size_t bi, uint32_t off, uint32_t len, uint8_t* dst);

  const Column* column_ = nullptr;
  /// Block the previous read ended in and its first global row: the next
  /// read at or past that row walks on from there.
  size_t last_block_ = SIZE_MAX;
  uint64_t last_start_ = 0;
  /// Delta or RLE block decoded into cache_ (SIZE_MAX = none).
  size_t cached_block_ = SIZE_MAX;
  std::vector<uint8_t> cache_;
  uint64_t blocks_read_ = 0;
  uint64_t values_decoded_ = 0;
};

}  // namespace avm
