#include <gtest/gtest.h>

#include "util/cpu_info.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace avm {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%05d", 3), "00003");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StrFormatTest, EmptyAndLong) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  std::string big(5000, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("cast_i16", "cast_"));
  EXPECT_FALSE(StartsWith("cas", "cast_"));
}

TEST(HashTest, IntegerAvalanche) {
  // Nearby keys must hash far apart.
  EXPECT_NE(HashInt64(1), HashInt64(2));
  EXPECT_NE(HashInt64(1) >> 32, HashInt64(2) >> 32);
}

TEST(HashTest, BytesAndStrings) {
  EXPECT_EQ(HashString("abc"), HashBytes("abc", 3));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(CpuInfoTest, HostProbeSane) {
  const CpuInfo& info = CpuInfo::Host();
  EXPECT_GE(info.num_cores, 1u);
  EXPECT_GE(info.l1_data_bytes, 4096u);
  EXPECT_GE(info.MaxFusedStreams(), 4u);
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
}

TEST(TimerTest, CycleCounterMonotonicish) {
  uint64_t a = ReadCycleCounter();
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  uint64_t b = ReadCycleCounter();
  EXPECT_GT(b, a);
}

TEST(LoggingTest, LevelGating) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  AVM_LOG(kDebug) << "should be suppressed";
  SetLogLevel(old);
}

}  // namespace
}  // namespace avm
