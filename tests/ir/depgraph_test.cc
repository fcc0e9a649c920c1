#include "ir/depgraph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dsl/builder.h"
#include "dsl/typecheck.h"

namespace avm::ir {
namespace {

using dsl::SkeletonKind;

Result<DepGraph> BuildFig2Graph(dsl::Program* p) {
  *p = dsl::MakeFigure2Program();
  AVM_RETURN_NOT_OK(dsl::TypeCheck(p));
  return DepGraph::Build(*p);
}

int FindNode(const DepGraph& g, SkeletonKind kind) {
  for (const auto& n : g.nodes()) {
    if (n.kind == kind) return static_cast<int>(n.id);
  }
  return -1;
}

TEST(DepGraphTest, Figure2HasExpectedNodes) {
  dsl::Program p;
  auto g = BuildFig2Graph(&p);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // read, map, filter, condense, write v, write w  (len excluded)
  EXPECT_EQ(g.value().size(), 6u);
  EXPECT_GE(FindNode(g.value(), SkeletonKind::kRead), 0);
  EXPECT_GE(FindNode(g.value(), SkeletonKind::kMap), 0);
  EXPECT_GE(FindNode(g.value(), SkeletonKind::kFilter), 0);
  EXPECT_GE(FindNode(g.value(), SkeletonKind::kCondense), 0);
}

TEST(DepGraphTest, Figure2Edges) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  const DepGraph& g = gr.value();
  int read = FindNode(g, SkeletonKind::kRead);
  int map = FindNode(g, SkeletonKind::kMap);
  int filter = FindNode(g, SkeletonKind::kFilter);
  int condense = FindNode(g, SkeletonKind::kCondense);
  // read -> map -> filter -> condense, map -> write v, condense -> write w.
  auto has_edge = [&](int from, int to) {
    for (uint32_t c : g.nodes()[from].consumers) {
      if (c == static_cast<uint32_t>(to)) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge(read, map));
  EXPECT_TRUE(has_edge(map, filter));
  EXPECT_TRUE(has_edge(filter, condense));
  // The map value 'a' is consumed by both the filter and a write.
  EXPECT_EQ(g.nodes()[map].consumers.size(), 2u);
}

TEST(DepGraphTest, ExternalReadsAndWrites) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  const DepGraph& g = gr.value();
  int read = FindNode(g, SkeletonKind::kRead);
  ASSERT_GE(read, 0);
  ASSERT_EQ(g.nodes()[read].external_reads.size(), 1u);
  EXPECT_EQ(g.nodes()[read].external_reads[0], "some_data");
  int writes = 0;
  for (const auto& n : g.nodes()) {
    if (n.kind == SkeletonKind::kWrite) {
      ++writes;
      ASSERT_EQ(n.external_writes.size(), 1u);
    }
  }
  EXPECT_EQ(writes, 2);
}

TEST(DepGraphTest, TopoOrderRespectsDependencies) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  auto order = gr.value().TopoOrder();
  ASSERT_EQ(order.size(), gr.value().size());
  std::vector<uint32_t> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& n : gr.value().nodes()) {
    for (uint32_t in : n.inputs) {
      EXPECT_LT(pos[in], pos[n.id]);
    }
  }
}

TEST(DepGraphTest, ProducerNames) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  int map = FindNode(gr.value(), SkeletonKind::kMap);
  EXPECT_EQ(gr.value().OutputNameOf(map), "a");
  EXPECT_EQ(gr.value().ProducerOf("a"), map);
  EXPECT_EQ(gr.value().ProducerOf("nonexistent"), -1);
}

TEST(DepGraphTest, ToDotRendersAllNodes) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  std::string dot = gr.value().ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("map"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Greedy partitioning (Fig. 3)
// ---------------------------------------------------------------------------

// The paper's §III-B heuristic as an acceptor: GreedyPartition asks only
// about regions that hold a filter, so rejecting every one keeps filters
// out of all traces.
bool RejectFilters(const Trace&) { return false; }

TEST(PartitionTest, Figure3TwoFunctionSplit) {
  // With filters excluded (the paper's heuristic), Fig. 2's graph
  // partitions into {read, map, write v} and singletons left interpreted —
  // matching the paper's "functions do not necessarily cover the whole
  // program". With filters allowed, the filter-side function appears too.
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());

  auto traces = GreedyPartition(gr.value(), {}, RejectFilters);
  ASSERT_FALSE(traces.empty());
  // The top trace must contain the map (hottest) and the read.
  const Trace& top = traces[0];
  int map = FindNode(gr.value(), SkeletonKind::kMap);
  int read = FindNode(gr.value(), SkeletonKind::kRead);
  int filter = FindNode(gr.value(), SkeletonKind::kFilter);
  EXPECT_TRUE(top.Contains(static_cast<uint32_t>(map)));
  EXPECT_TRUE(top.Contains(static_cast<uint32_t>(read)));
  for (const auto& t : traces) {
    EXPECT_FALSE(t.Contains(static_cast<uint32_t>(filter)));
  }

  auto traces2 = GreedyPartition(gr.value(), {});
  bool filter_somewhere = false;
  for (const auto& t : traces2) {
    filter_somewhere |= t.Contains(static_cast<uint32_t>(filter));
  }
  EXPECT_TRUE(filter_somewhere);
}

TEST(PartitionTest, StreamBudgetLimitsGrowth) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  PartitionConstraints c;
  c.max_streams = 2;  // extremely tight: almost nothing can merge
  auto traces = GreedyPartition(gr.value(), c);
  for (const auto& t : traces) {
    EXPECT_LE(t.inputs.size() + t.outputs.size(), 2u);
  }
}

TEST(PartitionTest, MaxNodesRespected) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  PartitionConstraints c;
  c.max_nodes = 1;
  auto traces = GreedyPartition(gr.value(), c);
  for (const auto& t : traces) EXPECT_EQ(t.node_ids.size(), 1u);
}

TEST(PartitionTest, TracesSortedByCost) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  auto traces = GreedyPartition(gr.value(), PartitionConstraints{});
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_GE(traces[i - 1].total_cost, traces[i].total_cost);
  }
}

TEST(PartitionTest, ProfiledCostsChangeSeedSelection) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  DepGraph g = std::move(gr).value();
  // Make the condense node overwhelmingly hot.
  int condense = FindNode(g, SkeletonKind::kCondense);
  g.nodes()[condense].cost = 1e9;
  auto traces = GreedyPartition(g, {}, RejectFilters);
  ASSERT_FALSE(traces.empty());
  EXPECT_TRUE(traces[0].Contains(static_cast<uint32_t>(condense)));
}

// A rejected filter-holding region grows again without filters: every
// node except the filters still lands in exactly one trace, so the
// acceptor never costs the plan compiled coverage.
TEST(PartitionTest, RejectedFilterRegionsFallBackToFilterFreeSplit) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  const DepGraph& g = gr.value();

  int calls = 0;
  const std::vector<Trace> got =
      GreedyPartition(g, PartitionConstraints{}, [&](const Trace& t) {
        ++calls;
        bool has_filter = false;
        for (uint32_t id : t.node_ids) {
          has_filter |= g.nodes()[id].kind == SkeletonKind::kFilter;
        }
        EXPECT_TRUE(has_filter) << "acceptor asked about a filter-free region";
        return false;
      });
  EXPECT_GT(calls, 0);
  for (const DepNode& n : g.nodes()) {
    int holders = 0;
    for (const Trace& t : got) holders += t.Contains(n.id) ? 1 : 0;
    EXPECT_EQ(holders, n.kind == SkeletonKind::kFilter ? 0 : 1)
        << "node " << n.label;
  }

  // Accepting everything is the same as passing no acceptor.
  const std::vector<Trace> fused = GreedyPartition(gr.value(), {});
  const std::vector<Trace> accepted = GreedyPartition(
      gr.value(), {}, [](const Trace&) { return true; });
  ASSERT_EQ(accepted.size(), fused.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(accepted[i].node_ids, fused[i].node_ids) << "trace " << i;
  }
}

TEST(PartitionTest, TraceBoundariesNamed) {
  dsl::Program p;
  auto gr = BuildFig2Graph(&p);
  ASSERT_TRUE(gr.ok());
  auto traces = GreedyPartition(gr.value(), {}, RejectFilters);
  ASSERT_FALSE(traces.empty());
  const Trace& top = traces[0];
  // {read, map, write v} reads some_data, writes v, and exposes 'a' and
  // 'input' to the rest of the program.
  EXPECT_NE(std::find(top.inputs.begin(), top.inputs.end(), "some_data"),
            top.inputs.end());
  EXPECT_NE(std::find(top.outputs.begin(), top.outputs.end(), "a"),
            top.outputs.end());
}

}  // namespace
}  // namespace avm::ir
