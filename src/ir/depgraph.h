// Dependency graph over the data-parallel operations of a loop body (Fig. 3)
// and trace extraction via greedy partitioning (Section III-B).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dsl/ast.h"
#include "util/status.h"

namespace avm::ir {

/// A node is one data-parallel skeleton application in the loop body.
struct DepNode {
  uint32_t id = 0;                    ///< index in DepGraph::nodes
  const dsl::Expr* expr = nullptr;    ///< the skeleton call it represents
  dsl::SkeletonKind kind = dsl::SkeletonKind::kMap;
  std::string label;                  ///< human-readable ("map *2")
  /// Ordinal of the top-level loop-body statement this node belongs to.
  /// A trace executes at its anchor (first covered) statement, so every
  /// value it consumes must be produced BEFORE that ordinal — the
  /// partitioner keeps regions statement-convex with it (see
  /// GreedyPartition), or a trace spanning an interpreted statement (e.g.
  /// a filter between its reads and its consumers) would read the
  /// previous iteration's value.
  uint32_t stmt_index = 0;

  std::vector<uint32_t> inputs;       ///< producing nodes
  std::vector<uint32_t> consumers;    ///< consuming nodes

  /// External arrays touched (data arrays read/written).
  std::vector<std::string> external_reads;
  std::vector<std::string> external_writes;

  /// Estimated (or profiled) cost per tuple — the partitioner's priority.
  double cost = 1.0;
  /// Number of primitive instructions (maps/filters after normalization).
  uint32_t num_prims = 1;
};

/// The dependency graph of one loop body: a DepNode per skeleton
/// application, def-use edges through `let` bindings, and the names of the
/// values the nodes produce.
class DepGraph {
 public:
  /// Build the graph for the (first) loop body of a type-checked program.
  /// Nodes are created for every skeleton expression reachable from the loop
  /// body, with def-use edges through `let` bindings.
  static Result<DepGraph> Build(const dsl::Program& program);

  const std::vector<DepNode>& nodes() const { return nodes_; }
  std::vector<DepNode>& nodes() { return nodes_; }
  size_t size() const { return nodes_.size(); }

  /// Node producing the value bound to `name`, or -1.
  int ProducerOf(const std::string& name) const;

  /// Name of the value a node produces ("a", "tmp3", ...).
  std::string OutputNameOf(uint32_t node) const;

  /// Record that `node` produces the value named `name` (used by Build).
  void RegisterProducer(const std::string& name, uint32_t node);

  /// Topological order (inputs before consumers).
  std::vector<uint32_t> TopoOrder() const;

  std::string ToDot() const;  ///< graphviz, for documentation/debugging

 private:
  std::vector<DepNode> nodes_;
  std::vector<std::pair<std::string, uint32_t>> producers_;
};

/// Heuristic constraints of the greedy partitioner (paper §III-B):
///  - `max_streams`: no more than n inputs+intermediates per function,
///    derived from the TLB size (prevents TLB thrashing).
/// Filters may always join a function; GreedyPartition's acceptor decides
/// whether a region holding one stays fused (an acceptor that rejects
/// every such region gives the paper's filter-excluding split).
struct PartitionConstraints {
  size_t max_streams = 12;
  bool allow_scatter_gather = true;
  size_t max_nodes = 64;
  bool operator==(const PartitionConstraints&) const = default;
};

/// A trace: a connected set of graph nodes compiled as one function.
struct Trace {
  std::vector<uint32_t> node_ids;      ///< in topological order
  std::vector<std::string> inputs;     ///< value names entering the trace
  std::vector<std::string> outputs;    ///< value names leaving the trace
  double total_cost = 0;

  bool Contains(uint32_t id) const {
    for (uint32_t n : node_ids) {
      if (n == id) return true;
    }
    return false;
  }

  /// The boundary inputs that are chunk *values* of the environment (as
  /// opposed to `data` arrays accessed through read windows): the inputs
  /// that may carry a selection vector at run time. The VM observes their
  /// selection state to pick the trace variant to compile (the
  /// selection-carrying part of a vm::TracePlan::Situation).
  std::vector<std::string> ChunkVarInputs(const dsl::Program& program) const;
};

/// Statement-convexity check shared by the partitioner and the trace code
/// generator: a trace executes all-at-once at its anchor (earliest)
/// statement, so its effects must commute with every statement it spans.
/// A region is convex when
///  - every value entering it is produced BEFORE its anchor statement (an
///    input produced by an interpreted statement between the covered ones
///    — e.g. a filter the constraints exclude — would still hold the
///    previous iteration's value),
///  - no node OUTSIDE the region but inside its statement span touches a
///    data array the region accesses conflictingly (outside write to an
///    array the region reads or writes; outside read of an array the
///    region writes), and
///  - the region itself never reads a data array it also writes (compiled
///    writes publish after the call, so a fused read-after-write would see
///    pre-write data).
/// Returns the id of a violating node, or -1 when the region is convex.
int StmtConvexityViolation(const DepGraph& graph,
                           const std::set<uint32_t>& region);
/// Convenience overload for callers holding the region as an id vector.
int StmtConvexityViolation(const DepGraph& graph,
                           const std::vector<uint32_t>& region);

/// Acceptance predicate of GreedyPartition: whether a grown region that
/// holds a filter may stay one trace. The VM passes one that checks the
/// filters' observed selectivity and runs the JIT gate
/// (analysis::VerifyTrace); taking it as a predicate keeps `ir` below
/// `analysis` and the profile.
using TraceAcceptor = std::function<bool(const Trace&)>;

/// Greedy partitioning: repeatedly seed with the most expensive unvisited
/// node and grow along edges while constraints hold. Regions are kept
/// statement-convex (StmtConvexityViolation). When `accept` is set and
/// rejects a grown region that holds a filter, the region grows again from
/// the same seed with filters excluded (a rejected filter seed stays
/// interpreted), so the acceptor never costs a plan compiled coverage.
/// `costs` are the node costs by node id; empty means each node's own
/// DepNode::cost. Deterministic in the graph, the node costs, the
/// constraints and the acceptor's answers. Returns traces sorted by
/// descending total cost. Traces may not cover the whole graph (remaining
/// nodes stay interpreted) — exactly as the paper allows.
std::vector<Trace> GreedyPartition(const DepGraph& graph,
                                   const PartitionConstraints& constraints,
                                   const TraceAcceptor& accept = nullptr,
                                   std::span<const double> costs = {});

}  // namespace avm::ir
