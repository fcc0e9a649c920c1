// Unit tests for the persistent on-disk trace cache: roundtrip, version
// keying, corruption handling, LRU eviction, and instance sharing.
#include "jit/disk_cache.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "tests/temp_dir.h"

namespace avm::jit {
namespace {

JitArtifact MakeArtifact(size_t len, uint8_t seed) {
  JitArtifact a;
  a.bytes.resize(len);
  for (size_t i = 0; i < len; ++i) {
    a.bytes[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return a;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(DiskCacheTest, StoreLoadRoundtrip) {
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 64 << 20);
  JitArtifact art = MakeArtifact(4096, 7);
  ASSERT_TRUE(cache.Store(/*situation_key=*/11, /*source_hash=*/42,
                          /*version_hash=*/5, art)
                  .ok());
  auto loaded = cache.TryLoad(11, 42, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().bytes, art.bytes);
  // One file per (situation, version): a 56-byte header, then the payload.
  const std::string path = cache.EntryPath(11, 5);
  EXPECT_EQ(path, tmp.path() + "/t000000000000000bv0000000000000005.avmtc");
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 56 + 4096);
  DiskCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(DiskCacheTest, MissOnUnknownSituation) {
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 64 << 20);
  auto loaded = cache.TryLoad(999, 42, 5);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DiskCacheTest, VersionMismatchSilentlyMisses) {
  // A different compiler/flags/ABI revision hashes to a different filename:
  // the stale artifact must never load, and it is a miss — not corruption.
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 64 << 20);
  ASSERT_TRUE(cache.Store(11, 42, /*version_hash=*/5,
                          MakeArtifact(512, 1))
                  .ok());
  auto loaded = cache.TryLoad(11, 42, /*version_hash=*/6);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().corrupt_dropped, 0u);
}

TEST(DiskCacheTest, SourceHashMismatchInvalidates) {
  // Same situation key but different generated source (e.g. a codegen
  // change that the version hash missed): the entry is stale, removed, and
  // reported as a miss so the caller recompiles.
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 64 << 20);
  ASSERT_TRUE(
      cache.Store(11, /*source_hash=*/42, 5, MakeArtifact(512, 2))
          .ok());
  auto loaded = cache.TryLoad(11, /*source_hash=*/43, 5);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(FileExists(cache.EntryPath(11, 5)));
}

TEST(DiskCacheTest, CorruptEntryDroppedAndDeleted) {
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 64 << 20);
  ASSERT_TRUE(
      cache.Store(11, 42, 5, MakeArtifact(2048, 3)).ok());
  const std::string path = cache.EntryPath(11, 5);
  ASSERT_TRUE(FileExists(path));

  // Flip one payload byte: the checksum must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  uint64_t corrupt_dropped = 0;
  auto loaded = cache.TryLoad(11, 42, 5, &corrupt_dropped);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
  EXPECT_EQ(corrupt_dropped, 1u);
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
  // The poisoned file is gone: the recompiled artifact can be re-stored.
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(
      cache.Store(11, 42, 5, MakeArtifact(2048, 3)).ok());
  EXPECT_TRUE(cache.TryLoad(11, 42, 5).ok());
}

TEST(DiskCacheTest, TruncatedEntryDropped) {
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 64 << 20);
  ASSERT_TRUE(
      cache.Store(11, 42, 5, MakeArtifact(2048, 4)).ok());
  const std::string path = cache.EntryPath(11, 5);
  ASSERT_EQ(::truncate(path.c_str(), 300), 0);
  auto loaded = cache.TryLoad(11, 42, 5);
  EXPECT_FALSE(loaded.ok());
  EXPECT_GE(cache.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(FileExists(path));
}

TEST(DiskCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  // Budget fits roughly two entries; storing four must evict the oldest.
  const size_t kPayload = 8192;
  TempDir tmp("avm_disk_cache_test");
  DiskTraceCache cache(tmp.path(), 2 * (kPayload + 256));
  for (uint64_t sit = 1; sit <= 4; ++sit) {
    ASSERT_TRUE(
        cache.Store(sit, 42, 5, MakeArtifact(kPayload, 9)).ok());
  }
  EXPECT_GE(cache.stats().evictions, 2u);
  // The newest entry always survives its own store's eviction pass.
  EXPECT_TRUE(FileExists(cache.EntryPath(4, 5)));
  // At least one of the older entries is gone.
  int survivors = 0;
  for (uint64_t sit = 1; sit <= 4; ++sit) {
    if (FileExists(cache.EntryPath(sit, 5))) ++survivors;
  }
  EXPECT_LE(survivors, 2);
}

TEST(DiskCacheTest, ForDirSharesOneInstancePerDirectory) {
  TempDir tmp("avm_disk_cache_test");
  const std::string dir = tmp.path();
  auto a = DiskTraceCache::ForDir(dir, 64 << 20);
  auto b = DiskTraceCache::ForDir(dir, 1 << 20);  // budget fixed by first call
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(b->budget_bytes(), static_cast<uint64_t>(64 << 20));
  TempDir other("avm_disk_cache_test");
  auto c = DiskTraceCache::ForDir(other.path(), 64 << 20);
  EXPECT_NE(a.get(), c.get());
}

TEST(DiskCacheTest, TwoInstancesShareOneDirectory) {
  // Two processes pointed at one directory are modeled by two independent
  // instances: writes publish atomically, reads verify checksums, so each
  // side always sees either nothing or a complete entry.
  TempDir tmp("avm_disk_cache_test");
  const std::string dir = tmp.path();
  DiskTraceCache a(dir, 64 << 20);
  DiskTraceCache b(dir, 64 << 20);
  JitArtifact art = MakeArtifact(1024, 12);
  ASSERT_TRUE(a.Store(21, 42, 5, art).ok());
  auto loaded = b.TryLoad(21, 42, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().bytes, art.bytes);
}

}  // namespace
}  // namespace avm::jit
