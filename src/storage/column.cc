#include "storage/column.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace avm {

Status Column::AppendValues(const void* values, uint32_t n) {
  const auto* bytes = static_cast<const uint8_t*>(values);
  const size_t w = TypeWidth(type_);
  uint32_t done = 0;
  // Fill the partial tail block is not supported: blocks are immutable, so
  // writers should append in block-sized batches; smaller appends simply
  // create smaller blocks.
  while (done < n) {
    uint32_t take = std::min(block_size_, n - done);
    AVM_ASSIGN_OR_RETURN(Block b,
                         EncodeBlockAuto(type_, bytes + size_t(done) * w, take));
    blocks_.push_back(std::move(b));
    num_rows_ += take;
    done += take;
  }
  return Status::OK();
}

Status Column::AppendBlockWithScheme(Scheme scheme, const void* values,
                                     uint32_t n) {
  if (n > block_size_) {
    return Status::InvalidArgument("block larger than column block size");
  }
  AVM_ASSIGN_OR_RETURN(Block b, EncodeBlock(scheme, type_, values, n));
  blocks_.push_back(std::move(b));
  num_rows_ += n;
  return Status::OK();
}

Status Column::Read(uint64_t row, uint32_t len, void* out) const {
  if (row + len > num_rows_) {
    return Status::OutOfRange(StrFormat("read [%llu, %llu) of %llu rows",
                                        (unsigned long long)row,
                                        (unsigned long long)(row + len),
                                        (unsigned long long)num_rows_));
  }
  auto* dst = static_cast<uint8_t*>(out);
  const size_t w = TypeWidth(type_);
  // Blocks created by AppendValues are block_size_-aligned except possibly
  // the last of each append call; walk blocks by cumulative count instead of
  // assuming alignment.
  uint64_t pos = 0;
  size_t bi = 0;
  while (bi < blocks_.size() && pos + blocks_[bi].count <= row) {
    pos += blocks_[bi].count;
    ++bi;
  }
  uint32_t remaining = len;
  uint64_t cur = row;
  while (remaining > 0) {
    if (bi >= blocks_.size()) return Status::Internal("row walk out of blocks");
    const Block& b = blocks_[bi];
    uint32_t off = static_cast<uint32_t>(cur - pos);
    uint32_t take = std::min(remaining, b.count - off);
    AVM_RETURN_NOT_OK(DecodeBlockRange(b, off, take, dst));
    dst += static_cast<size_t>(take) * w;
    cur += take;
    remaining -= take;
    pos += b.count;
    ++bi;
  }
  return Status::OK();
}

Result<std::pair<const Block*, uint32_t>> Column::BlockAt(uint64_t row) const {
  if (row >= num_rows_) return Status::OutOfRange("BlockAt past end");
  uint64_t pos = 0;
  for (const auto& b : blocks_) {
    if (row < pos + b.count) {
      return std::make_pair(&b, static_cast<uint32_t>(row - pos));
    }
    pos += b.count;
  }
  return Status::Internal("block walk failed");
}

size_t Column::EncodedBytes() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b.data.size();
  return total;
}

double Column::CompressionRatio() const {
  size_t raw = static_cast<size_t>(num_rows_) * TypeWidth(type_);
  size_t enc = EncodedBytes();
  return enc == 0 ? 1.0 : static_cast<double>(raw) / static_cast<double>(enc);
}

Status ColumnChunkCursor::ReadBlockRange(size_t bi, uint32_t off,
                                         uint32_t len, uint8_t* dst) {
  const Block& b = column_->block(bi);
  if (b.scheme != Scheme::kDelta && b.scheme != Scheme::kRle) {
    values_decoded_ += len;
    return DecodeBlockRange(b, off, len, dst);
  }
  const size_t w = TypeWidth(b.type);
  if (cached_block_ != bi) {
    cache_.resize(static_cast<size_t>(b.count) * w);
    AVM_RETURN_NOT_OK(DecodeBlock(b, cache_.data()));
    cached_block_ = bi;
    values_decoded_ += b.count;
  }
  std::memcpy(dst, cache_.data() + static_cast<size_t>(off) * w,
              static_cast<size_t>(len) * w);
  return Status::OK();
}

Status ColumnChunkCursor::ReadAt(uint64_t row, uint32_t len, void* out,
                                 Scheme* scheme) {
  if (column_ == nullptr) return Status::Internal("cursor has no column");
  if (row + len > column_->num_rows()) {
    return Status::OutOfRange(StrFormat("cursor read [%llu, %llu) of %llu rows",
                                        (unsigned long long)row,
                                        (unsigned long long)(row + len),
                                        (unsigned long long)column_->num_rows()));
  }
  const size_t w = TypeWidth(column_->type());
  auto* dst = static_cast<uint8_t*>(out);
  // Walk blocks by cumulative count (counts can be heterogeneous), starting
  // from the previous read's block when the read is at or past it — the
  // sequential morsel pattern then skips the walk entirely.
  uint64_t pos = 0;
  size_t bi = 0;
  if (last_block_ != SIZE_MAX && row >= last_start_) {
    pos = last_start_;
    bi = last_block_;
  }
  while (bi < column_->num_blocks() && pos + column_->block(bi).count <= row) {
    pos += column_->block(bi).count;
    ++bi;
  }
  bool first = true;
  uint32_t remaining = len;
  uint64_t cur = row;
  while (remaining > 0) {
    if (bi >= column_->num_blocks()) {
      return Status::Internal("cursor row walk out of blocks");
    }
    const Block& b = column_->block(bi);
    if (first && scheme != nullptr) *scheme = b.scheme;
    first = false;
    if (bi != last_block_) {
      ++blocks_read_;
      last_block_ = bi;
      last_start_ = pos;
    }
    const auto off = static_cast<uint32_t>(cur - pos);
    const uint32_t take = std::min(remaining, b.count - off);
    AVM_RETURN_NOT_OK(ReadBlockRange(bi, off, take, dst));
    dst += static_cast<size_t>(take) * w;
    cur += take;
    remaining -= take;
    pos += b.count;
    ++bi;
  }
  return Status::OK();
}

}  // namespace avm
