// storage::SpillFile — on-disk sorted-run storage for out-of-core ORDER BY
// (docs/SPILL.md).
//
// A spill file is query scratch: one file per spilled query, holding the
// sorted per-morsel kPartialOutput runs that no longer fit the query's
// memory budget, and unlinked when the query ends. The writer appends one
// run per morsel (the run's rows, column-major, raw host-endian values)
// from offset 0:
//
//   [run 0 payload][run 1 payload]...
//
// The run directory (morsel, rows, offset, checksum per run) lives in
// memory only; no process reads the file after its query. A run's checksum
// is a 64-bit hash in the style of xxHash64: four lanes over 32-byte
// stripes, read a word at a time. The merge runs ValidateChecksums before
// it reads, so a corrupt or truncated run surfaces as a clean Status
// instead of wrong rows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace avm::storage {

/// Writer/reader of one query's spilled sorted runs; see the file comment
/// for the layout and integrity rules.
class SpillFile {
 public:
  /// One appended run: which morsel produced it and where its rows are.
  struct RunInfo {
    uint64_t morsel = 0;  ///< producing morsel's schedule index
    uint64_t rows = 0;
    uint64_t offset = 0;    ///< payload offset in the file
    uint64_t checksum = 0;  ///< four-lane word hash of the run payload
  };

  /// Create a new, empty spill file for runs of the given column layout in
  /// the spill directory, AVM_SPILL_DIR, else TMPDIR, else /tmp (created if
  /// missing).
  static Result<std::unique_ptr<SpillFile>> Create(
      std::vector<TypeId> col_types);

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Append one sorted run: `cols[c]` points at `rows` contiguous values of
  /// column c. Returns the run index. A failed append (short write, disk
  /// full) records no run: the caller must Close() and fail the query.
  Result<uint64_t> AppendRun(uint64_t morsel, uint64_t rows,
                             const std::vector<const uint8_t*>& cols);

  /// End appends: AppendRun fails with InvalidArgument from here on.
  Status Seal();

  /// Stream-verify every run's payload checksum (one sequential pass).
  /// Call before merging — a corrupt or truncated run fails here instead
  /// of producing wrong rows.
  Status ValidateChecksums();

  /// Read `rows` values of column `col` from run `run`, starting at row
  /// `row_begin` within the run, into `out`. Bounds-checked; a short read
  /// (truncated file) is an error.
  Status ReadRunChunk(uint64_t run, size_t col, uint64_t row_begin,
                      uint64_t rows, void* out) const;

  /// Appended-run metadata.
  uint64_t num_runs() const { return runs_.size(); }
  /// Metadata of run `r` (valid for r < num_runs()).
  const RunInfo& run(uint64_t r) const { return runs_[r]; }
  /// Column layout every run shares.
  const std::vector<TypeId>& col_types() const { return col_types_; }
  /// Total payload bytes appended so far.
  uint64_t bytes_written() const { return bytes_written_; }
  /// Path the file lives at until Close().
  const std::string& path() const { return path_; }

  /// Close the descriptor and unlink the file. Idempotent; also run by the
  /// destructor.
  void Close();

  /// Test hook: fail writes after `bytes` total bytes (simulated ENOSPC);
  /// -1 disables. Applies process-wide to subsequently written bytes.
  static void SetWriteLimitForTesting(int64_t bytes);

 private:
  SpillFile() = default;
  /// Write all `n` bytes at `offset`; a short write is ResourceExhausted.
  Status WriteAll(const void* data, size_t n, uint64_t offset);

  std::string path_;
  int fd_ = -1;
  bool sealed_ = false;
  std::vector<TypeId> col_types_;
  std::vector<RunInfo> runs_;
  uint64_t bytes_written_ = 0;
};

}  // namespace avm::storage
