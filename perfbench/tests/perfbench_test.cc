// Tests of the benchmark's own machinery: oracles, order statistics, span
// self times and seeded input generation.
#include <gtest/gtest.h>

#include "driver/spans.h"
#include "driver/stats.h"
#include "driver/workloads.h"
#include "engine/session.h"

namespace perfbench {
namespace {

DataSizes Tiny() {
  return {.lineitem_rows = 20'000, .probe_rows = 5'000, .join_keys = 128};
}

avm::engine::ExecReport RunOn(avm::engine::Session& s, avm::engine::Query& q) {
  return s.Run(q.context()).ValueOrDie();
}

TEST(OracleTest, AcceptsEngineResultsAndRejectsCorruptedOnes) {
  const Inputs in = GenerateInputs(7, Tiny());
  const Oracle o = ComputeOracle(in, {Shape::kQ1, Shape::kJoinAgg,
                                      Shape::kSemijoin, Shape::kJoinOrderBy});
  avm::engine::SessionOptions so;
  so.num_workers = 2;
  avm::engine::Session session(so);

  for (Shape shape : {Shape::kQ1, Shape::kJoinAgg, Shape::kSemijoin,
                      Shape::kJoinOrderBy}) {
    avm::engine::Query q = BuildQuery(shape, in).ValueOrDie();
    RunOn(session, q);
    EXPECT_TRUE(CheckResult(shape, q, o)) << ShapeName(shape);
  }

  // Row plan: flip one value, swap two rows, drop one row.
  avm::engine::Query q = BuildQuery(Shape::kJoinOrderBy, in).ValueOrDie();
  RunOn(session, q);
  const uint64_t rows = q.num_result_rows();
  ASSERT_GT(rows, 2u);
  auto cols = q.result_columns();
  ASSERT_TRUE(CheckJoinRows(cols, rows, o));
  {
    auto bad = cols;
    bad[1].data[8 * (rows / 2)] ^= 1;
    EXPECT_FALSE(CheckJoinRows(bad, rows, o));
  }
  {
    auto bad = cols;
    for (auto& c : bad) {
      auto* v = reinterpret_cast<int64_t*>(c.data.data());
      std::swap(v[0], v[rows - 1]);
    }
    EXPECT_FALSE(CheckJoinRows(bad, rows, o));
  }
  {
    auto bad = cols;
    for (auto& c : bad) c.data.resize(c.data.size() - 8);
    EXPECT_FALSE(CheckJoinRows(bad, rows - 1, o));
  }

  // Aggregates: an oracle off by one in any checked slot rejects.
  avm::engine::Query q1 = BuildQuery(Shape::kQ1, in).ValueOrDie();
  RunOn(session, q1);
  Oracle bad = o;
  bad.q1.groups[1].sum_charge += 1;
  EXPECT_FALSE(CheckResult(Shape::kQ1, q1, bad));
  avm::engine::Query agg = BuildQuery(Shape::kJoinAgg, in).ValueOrDie();
  RunOn(session, agg);
  bad = o;
  bad.revenue -= 1;
  EXPECT_FALSE(CheckResult(Shape::kJoinAgg, agg, bad));
  avm::engine::Query semi = BuildQuery(Shape::kSemijoin, in).ValueOrDie();
  RunOn(session, semi);
  bad = o;
  bad.survivors += 1;
  EXPECT_FALSE(CheckResult(Shape::kSemijoin, semi, bad));
}

TEST(StatsTest, NearestRankPercentilesAndSampleCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({1, 2, 3}, 50), 2);

  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);

  // Ten samples: the two lowest and two highest are dropped.
  EXPECT_EQ(InterquartileMean({100, 1, 5, 6, 3, 5, 6, 5, -50, 8}), 5);
  EXPECT_EQ(InterquartileMean({3, 9, 6}), 6);
  EXPECT_EQ(InterquartileMean({}), 0);

  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(SamplesBeyond(0, 90), 0u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
}

TEST(SpansTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  std::vector<SpanRecord> s(5);
  s[0] = {"parent", 0, 100, -1, -1};
  s[1] = {"a", 10, 30, 0, -1};
  s[2] = {"b", 20, 50, 0, -1};    // overlaps a: union [10, 50)
  s[3] = {"c", 90, 130, 0, -1};   // clipped to [90, 100)
  s[4] = {"grand", 12, 18, 1, -1};  // grandchild: only a's self time
  EXPECT_EQ(SelfTimeNs(s, 0), 100 - 40 - 10);
  EXPECT_EQ(SelfTimeNs(s, 1), 20 - 6);
  EXPECT_EQ(SelfTimeNs(s, 2), 30);
  EXPECT_EQ(SelfTimeNs(s, 4), 6);
}

TEST(SpansTest, RecorderNestsSpansAndSumsSelfTimeByName) {
  SpanRecorder rec;
  { ScopedSpan off(rec, "ignored"); }
  EXPECT_TRUE(rec.spans().empty());
  rec.set_enabled(true);
  {
    ScopedSpan outer(rec, "outer");
    { ScopedSpan inner(rec, "inner", 3); }
    rec.Add("async", rec.Now(), rec.Now() + 5, 4);
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].query, 3);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  const auto self = rec.SelfMsByName();
  const SpanRecord& o = rec.spans()[0];
  EXPECT_LE(self.at("outer"), (o.end_ns - o.start_ns) / 1e6);
  EXPECT_GE(self.at("inner"), 0);
}

TEST(InputsTest, SameSeedSameInputsOtherSeedOtherInputs) {
  const Inputs a = GenerateInputs(11, Tiny());
  const Inputs b = GenerateInputs(11, Tiny());
  const Inputs c = GenerateInputs(12, Tiny());
  const JoinColumns ja = DecodeJoinColumns(a);
  const JoinColumns jb = DecodeJoinColumns(b);
  const JoinColumns jc = DecodeJoinColumns(c);
  EXPECT_EQ(ja.f_key, jb.f_key);
  EXPECT_EQ(ja.f_a, jb.f_a);
  EXPECT_EQ(ja.f_b, jb.f_b);
  EXPECT_EQ(ja.d_key, jb.d_key);
  EXPECT_EQ(ja.d_val, jb.d_val);
  EXPECT_EQ(ja.k_val, jb.k_val);
  EXPECT_NE(ja.f_key, jc.f_key);

  const std::vector<Shape> all = {Shape::kQ1, Shape::kJoinAgg,
                                  Shape::kSemijoin, Shape::kJoinOrderBy};
  const Oracle oa = ComputeOracle(a, all);
  const Oracle ob = ComputeOracle(b, all);
  const Oracle oc = ComputeOracle(c, all);
  EXPECT_EQ(oa.q1, ob.q1);
  EXPECT_EQ(oa.join_checksum, ob.join_checksum);
  EXPECT_EQ(oa.revenue, ob.revenue);
  EXPECT_EQ(oa.survivors, ob.survivors);
  EXPECT_FALSE(oa.q1 == oc.q1);
  EXPECT_NE(oa.join_checksum, oc.join_checksum);
}

}  // namespace
}  // namespace perfbench
