// storage::SpillFile integrity tests: append/read round trips, the run
// checksum (the same however a run's bytes are split, and broken by each
// flip of a table), fault injection (short writes / simulated ENOSPC,
// corrupted and truncated payloads made through path()), bounds checking,
// and the no-leaked-files guarantee — every failure must surface as a clean Status, never as
// wrong rows or an orphaned file.
#include "storage/spill_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "tests/temp_dir.h"
#include "util/rng.h"

namespace avm::storage {
namespace {

namespace fs = std::filesystem;

/// Fresh private spill directory per test (AVM_SPILL_DIR), removed at
/// teardown.
class SpillFileTest : public ::testing::Test {
 protected:
  void TearDown() override { SpillFile::SetWriteLimitForTesting(-1); }

  size_t FilesInDir() const { return spill_dir_.files(); }

  /// A one-column i64 spill file holding one run of 0..rows-1.
  std::unique_ptr<SpillFile> OneRun(uint64_t rows) {
    auto created = SpillFile::Create({TypeId::kI64});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return nullptr;
    std::unique_ptr<SpillFile> sf = std::move(created).value();
    std::vector<int64_t> v(rows);
    for (uint64_t i = 0; i < rows; ++i) v[i] = static_cast<int64_t>(i);
    const std::vector<const uint8_t*> cols = {
        reinterpret_cast<const uint8_t*>(v.data())};
    EXPECT_TRUE(sf->AppendRun(0, rows, cols).ok());
    return sf;
  }

  /// A sealed spill file holding one run of kMixedRows random rows in
  /// columns 1, 2, 4 and 8 bytes wide (`cols` receives their bytes).
  std::unique_ptr<SpillFile> MixedWidthRun(
      std::vector<std::vector<uint8_t>>* cols) {
    auto created = SpillFile::Create(
        {TypeId::kI8, TypeId::kI16, TypeId::kI32, TypeId::kI64});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return nullptr;
    std::unique_ptr<SpillFile> sf = std::move(created).value();
    Rng rng(29);
    cols->clear();
    std::vector<const uint8_t*> bases;
    for (size_t width : {1, 2, 4, 8}) {
      std::vector<uint8_t>& col = cols->emplace_back(kMixedRows * width);
      for (uint8_t& b : col) b = static_cast<uint8_t>(rng.Next());
      bases.push_back(col.data());
    }
    EXPECT_TRUE(sf->AppendRun(0, kMixedRows, bases).ok());
    EXPECT_TRUE(sf->Seal().ok());
    return sf;
  }

  /// 40,001 rows of 15 bytes: a 600,015-byte run, longer than
  /// ValidateChecksums' 256 KiB reads, whose column boundaries
  /// (kMixedBoundaries) fall on no multiple of 8.
  static constexpr uint64_t kMixedRows = 40'001;
  static constexpr uint64_t kMixedBytes = kMixedRows * 15;
  static constexpr uint64_t kMixedBoundaries[3] = {
      kMixedRows, kMixedRows * 3, kMixedRows * 7};

  ScopedSpillDir spill_dir_{"avm_spill_file_test"};
};

std::vector<int64_t> Iota(uint64_t n, int64_t start) {
  std::vector<int64_t> v(n);
  for (uint64_t i = 0; i < n; ++i) v[i] = start + static_cast<int64_t>(i);
  return v;
}

TEST_F(SpillFileTest, RoundTripMultiRunMultiColumn) {
  auto created = SpillFile::Create({TypeId::kI64, TypeId::kF64});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<SpillFile> sf = std::move(created).value();
  EXPECT_EQ(fs::file_size(sf->path()), 0u);  // Create writes nothing

  const uint64_t kRuns = 3, kRows = 1000;
  for (uint64_t r = 0; r < kRuns; ++r) {
    std::vector<int64_t> keys = Iota(kRows, static_cast<int64_t>(r) * 10'000);
    std::vector<double> vals(kRows);
    for (uint64_t i = 0; i < kRows; ++i) {
      vals[i] = static_cast<double>(keys[i]) / 4.0;
    }
    const std::vector<const uint8_t*> cols = {
        reinterpret_cast<const uint8_t*>(keys.data()),
        reinterpret_cast<const uint8_t*>(vals.data())};
    auto run = sf->AppendRun(/*morsel=*/r, kRows, cols);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value(), r);
  }
  // The file holds the payload and nothing else.
  EXPECT_EQ(sf->bytes_written(), kRuns * kRows * (8 + 8));
  EXPECT_EQ(fs::file_size(sf->path()), sf->bytes_written());
  ASSERT_TRUE(sf->Seal().ok());
  ASSERT_TRUE(sf->ValidateChecksums().ok());

  // Read back an unaligned chunk of each run.
  ASSERT_EQ(sf->num_runs(), kRuns);
  for (uint64_t r = 0; r < kRuns; ++r) {
    EXPECT_EQ(sf->run(r).morsel, r);
    EXPECT_EQ(sf->run(r).rows, kRows);
    std::vector<int64_t> keys(257);
    std::vector<double> vals(257);
    ASSERT_TRUE(sf->ReadRunChunk(r, 0, 123, 257, keys.data()).ok());
    ASSERT_TRUE(sf->ReadRunChunk(r, 1, 123, 257, vals.data()).ok());
    for (uint64_t i = 0; i < 257; ++i) {
      const int64_t want = static_cast<int64_t>(r) * 10'000 + 123 +
                           static_cast<int64_t>(i);
      EXPECT_EQ(keys[i], want);
      EXPECT_EQ(vals[i], static_cast<double>(want) / 4.0);
    }
  }

  sf->Close();
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(SpillFileTest, ReadRunChunkBoundsChecked) {
  std::unique_ptr<SpillFile> sf = OneRun(100);
  ASSERT_NE(sf, nullptr);
  ASSERT_TRUE(sf->Seal().ok());

  int64_t out[8];
  EXPECT_TRUE(sf->ReadRunChunk(0, 0, 96, 8, out).IsOutOfRange());
  EXPECT_TRUE(sf->ReadRunChunk(1, 0, 0, 1, out).IsOutOfRange());
  EXPECT_TRUE(sf->ReadRunChunk(0, 3, 0, 1, out).IsOutOfRange());
  EXPECT_TRUE(sf->ReadRunChunk(0, 0, 0, 8, out).ok());
}

TEST_F(SpillFileTest, AppendAfterSealIsInvalidArgument) {
  std::unique_ptr<SpillFile> sf = OneRun(64);
  ASSERT_NE(sf, nullptr);
  ASSERT_TRUE(sf->Seal().ok());
  std::vector<int64_t> v = Iota(64, 0);
  const std::vector<const uint8_t*> cols = {
      reinterpret_cast<const uint8_t*>(v.data())};
  Status st = sf->AppendRun(1, 64, cols).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(sf->num_runs(), 1u);
}

TEST_F(SpillFileTest, SimulatedDiskFullFailsCleanlyAndLeaksNothing) {
  std::unique_ptr<SpillFile> sf = OneRun(4096);
  ASSERT_NE(sf, nullptr);
  std::vector<int64_t> v = Iota(4096, 0);
  const std::vector<const uint8_t*> cols = {
      reinterpret_cast<const uint8_t*>(v.data())};

  // A short write partway into the next run, then a full disk.
  SpillFile::SetWriteLimitForTesting(1000);
  Status st = sf->AppendRun(1, 4096, cols).status();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  st = sf->AppendRun(2, 4096, cols).status();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  // A failed append records no run and no payload bytes.
  EXPECT_EQ(sf->num_runs(), 1u);
  EXPECT_EQ(sf->bytes_written(), 4096u * 8);

  // A poisoned writer must still tear down without leaving files behind.
  SpillFile::SetWriteLimitForTesting(-1);
  sf->Close();
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(SpillFileTest, MixedWidthRunRoundTripsAndValidates) {
  // AppendRun hashes the run column by column, so its calls split the
  // payload at the column boundaries, none a multiple of 8, and carry a
  // partial stripe between calls. ValidateChecksums reads in aligned
  // 256 KiB pieces. The run validates only if the two splits give the
  // same digest.
  for (uint64_t boundary : kMixedBoundaries) EXPECT_NE(boundary % 8, 0u);
  EXPECT_GT(kMixedBytes, 2u * 256 * 1024);
  std::vector<std::vector<uint8_t>> cols;
  std::unique_ptr<SpillFile> sf = MixedWidthRun(&cols);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->bytes_written(), kMixedBytes);
  EXPECT_EQ(fs::file_size(sf->path()), kMixedBytes);
  Status st = sf->ValidateChecksums();
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t c = 0; c < cols.size(); ++c) {
    std::vector<uint8_t> back(cols[c].size());
    ASSERT_TRUE(sf->ReadRunChunk(0, c, 0, kMixedRows, back.data()).ok());
    EXPECT_EQ(back, cols[c]) << "column " << c;
  }
  sf->Close();
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(SpillFileTest, CorruptPayloadCaughtByValidateNeverWrongRows) {
  // Each row flips the given bits (byte offset, mask) of a fresh copy of
  // the mixed-width run: the pre-merge checksum pass must refuse to serve
  // it. The last row flips the top bits of two words one 32-byte stripe
  // apart, which cancel in a lane hash that only multiplies.
  struct Flip {
    std::string what;
    std::vector<std::pair<uint64_t, uint8_t>> bits;
  };
  std::vector<Flip> flips = {
      {"first byte", {{0, 0x01}}},
      {"last byte", {{kMixedBytes - 1, 0x80}}},
  };
  for (uint64_t boundary : kMixedBoundaries) {
    const std::string at = std::to_string(boundary);
    flips.push_back({"byte before boundary " + at, {{boundary - 1, 0x40}}});
    flips.push_back({"byte at boundary " + at, {{boundary, 0x02}}});
  }
  flips.push_back({"bit 7 of bytes 7 and 39", {{7, 0x80}, {39, 0x80}}});

  for (const Flip& flip : flips) {
    SCOPED_TRACE(flip.what);
    std::vector<std::vector<uint8_t>> cols;
    std::unique_ptr<SpillFile> sf = MixedWidthRun(&cols);
    ASSERT_NE(sf, nullptr);
    ASSERT_TRUE(sf->ValidateChecksums().ok());
    FILE* f = std::fopen(sf->path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    for (auto [offset, mask] : flip.bits) {
      ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
      const int c = std::fgetc(f);
      ASSERT_NE(c, EOF);
      ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
      ASSERT_NE(std::fputc(c ^ mask, f), EOF);
    }
    ASSERT_EQ(std::fclose(f), 0);
    Status st = sf->ValidateChecksums();
    EXPECT_TRUE(st.IsRuntimeError()) << st.ToString();
    sf->Close();
    EXPECT_EQ(FilesInDir(), 0u);
  }
}

TEST_F(SpillFileTest, TruncatedPayloadCaughtByValidate) {
  std::unique_ptr<SpillFile> sf = OneRun(1024);
  ASSERT_NE(sf, nullptr);
  ASSERT_TRUE(sf->Seal().ok());

  // Cut the file mid-payload: the checksum pass and a read past the cut
  // both fail, neither returns rows.
  fs::resize_file(sf->path(), 512);
  Status st = sf->ValidateChecksums();
  EXPECT_TRUE(st.IsRuntimeError()) << st.ToString();
  int64_t out[8];
  st = sf->ReadRunChunk(0, 0, 1000, 8, out);
  EXPECT_TRUE(st.IsRuntimeError()) << st.ToString();
  sf->Close();
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(SpillFileTest, DestructorUnlinksFile) {
  {
    std::unique_ptr<SpillFile> sf = OneRun(64);
    ASSERT_NE(sf, nullptr);
    EXPECT_EQ(FilesInDir(), 1u);
  }
  EXPECT_EQ(FilesInDir(), 0u);
  {
    std::unique_ptr<SpillFile> sf = OneRun(64);
    ASSERT_NE(sf, nullptr);
    ASSERT_TRUE(sf->Seal().ok());
    sf->Close();
    sf->Close();  // idempotent
    EXPECT_EQ(FilesInDir(), 0u);
  }
}

}  // namespace
}  // namespace avm::storage
