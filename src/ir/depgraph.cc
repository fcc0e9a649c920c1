#include "ir/depgraph.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dsl/printer.h"
#include "util/string_util.h"

namespace avm::ir {

namespace {

using dsl::Expr;
using dsl::ExprKind;
using dsl::ExprPtr;
using dsl::SkeletonKind;
using dsl::Stmt;
using dsl::StmtKind;
using dsl::StmtPtr;

double BaseCost(SkeletonKind k, uint32_t num_prims) {
  switch (k) {
    case SkeletonKind::kRead: return 1.0;
    case SkeletonKind::kWrite: return 1.0;
    case SkeletonKind::kMap: return 1.0 * num_prims;
    case SkeletonKind::kFilter: return 1.5 + 0.5 * num_prims;
    case SkeletonKind::kFold: return 1.2 * num_prims;
    case SkeletonKind::kCondense: return 1.0;
    case SkeletonKind::kGather: return 2.5;
    case SkeletonKind::kScatter: return 3.0;
    case SkeletonKind::kGen: return 1.0;
    case SkeletonKind::kExpand: return 2.5;
    case SkeletonKind::kMerge: return 4.0;
    case SkeletonKind::kLen: return 0.0;
  }
  return 1.0;
}

uint32_t CountPrims(const Expr& e) {
  uint32_t n = e.kind == ExprKind::kScalarCall ? 1 : 0;
  if (e.body) n += CountPrims(*e.body);
  for (const auto& a : e.args) n += CountPrims(*a);
  return n;
}

std::string ShortLabel(const Expr& e) {
  std::string label = dsl::SkeletonName(e.skeleton);
  if ((e.skeleton == SkeletonKind::kMap ||
       e.skeleton == SkeletonKind::kFilter ||
       e.skeleton == SkeletonKind::kFold) &&
      !e.args.empty() && e.args[0]->kind == ExprKind::kLambda) {
    std::string body = dsl::PrintExpr(*e.args[0]->body);
    if (body.size() > 24) body = body.substr(0, 21) + "...";
    label += " [" + body + "]";
  }
  return label;
}

class GraphBuilder {
 public:
  explicit GraphBuilder(const dsl::Program& program) : program_(program) {}

  Result<DepGraph> Run() {
    // Find the (first) loop; it defines the steady-state pipeline iteration
    // the VM profiles and compiles. Programs without a loop use all stmts.
    const std::vector<StmtPtr>* body = &program_.stmts;
    for (const auto& s : program_.stmts) {
      if (s->kind == StmtKind::kLoop) {
        body = &s->body;
        break;
      }
    }
    for (const auto& s : *body) {
      AVM_RETURN_NOT_OK(VisitStmt(*s));
      ++cur_stmt_index_;
    }
    return std::move(graph_);
  }

 private:
  Status VisitStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kLet: {
        AVM_ASSIGN_OR_RETURN(int node, VisitExpr(*s.expr));
        if (node >= 0) {
          graph_.nodes()[static_cast<size_t>(node)].label +=
              " -> " + s.var;
          RegisterProducer(s.var, static_cast<uint32_t>(node));
        }
        return Status::OK();
      }
      case StmtKind::kExpr:
      case StmtKind::kAssign: {
        AVM_RETURN_NOT_OK(VisitExpr(*s.expr).status());
        return Status::OK();
      }
      case StmtKind::kIf: {
        AVM_RETURN_NOT_OK(VisitExpr(*s.expr).status());
        for (const auto& c : s.body) AVM_RETURN_NOT_OK(VisitStmt(*c));
        for (const auto& c : s.else_body) AVM_RETURN_NOT_OK(VisitStmt(*c));
        return Status::OK();
      }
      case StmtKind::kLoop: {
        for (const auto& c : s.body) AVM_RETURN_NOT_OK(VisitStmt(*c));
        return Status::OK();
      }
      default:
        return Status::OK();
    }
  }

  // Returns node id for skeleton expressions (excluding len), -1 otherwise.
  Result<int> VisitExpr(const Expr& e) {
    if (e.kind != ExprKind::kSkeleton) {
      // Scalar expression: recurse to catch nested skeletons (e.g. len).
      for (const auto& a : e.args) {
        AVM_RETURN_NOT_OK(VisitExpr(*a).status());
      }
      return -1;
    }
    if (e.skeleton == SkeletonKind::kLen) {
      // Control-flow helper; not part of the data-parallel graph (Fig. 3
      // excludes mutable-variable updates and control flow).
      return -1;
    }
    DepNode node;
    node.id = static_cast<uint32_t>(graph_.nodes().size());
    node.expr = &e;
    node.kind = e.skeleton;
    node.num_prims = std::max<uint32_t>(1, CountPrims(e));
    node.label = ShortLabel(e);
    node.cost = BaseCost(e.skeleton, node.num_prims);
    node.stmt_index = cur_stmt_index_;
    graph_.nodes().push_back(node);
    const uint32_t id = node.id;

    for (size_t i = 0; i < e.args.size(); ++i) {
      const Expr& a = *e.args[i];
      if (a.kind == ExprKind::kLambda) continue;
      if (a.kind == ExprKind::kVarRef) {
        if (program_.FindData(a.var) != nullptr) {
          bool is_write_dest =
              (e.skeleton == SkeletonKind::kWrite ||
               e.skeleton == SkeletonKind::kScatter) &&
              i == 0;
          auto& n = graph_.nodes()[id];
          if (is_write_dest) {
            n.external_writes.push_back(a.var);
          } else {
            n.external_reads.push_back(a.var);
          }
          continue;
        }
        int prod = graph_.ProducerOf(a.var);
        if (prod >= 0) AddEdge(static_cast<uint32_t>(prod), id);
        continue;
      }
      if (a.kind == ExprKind::kSkeleton) {
        AVM_ASSIGN_OR_RETURN(int child, VisitExpr(a));
        if (child >= 0) {
          // Synthesize a name for the anonymous intermediate.
          std::string name = StrFormat("tmp%d", child);
          graph_.nodes()[static_cast<size_t>(child)].label += " -> " + name;
          RegisterProducer(name, static_cast<uint32_t>(child));
          AddEdge(static_cast<uint32_t>(child), id);
        }
        continue;
      }
      // Scalar expression argument (positions etc.): ignore.
    }
    return static_cast<int>(id);
  }

  void AddEdge(uint32_t from, uint32_t to) {
    graph_.nodes()[from].consumers.push_back(to);
    graph_.nodes()[to].inputs.push_back(from);
  }

  void RegisterProducer(const std::string& name, uint32_t node) {
    graph_.RegisterProducer(name, node);
  }

  const dsl::Program& program_;
  DepGraph graph_;
  uint32_t cur_stmt_index_ = 0;  ///< top-level body statement ordinal
};

}  // namespace

Result<DepGraph> DepGraph::Build(const dsl::Program& program) {
  return GraphBuilder(program).Run();
}

int DepGraph::ProducerOf(const std::string& name) const {
  for (auto it = producers_.rbegin(); it != producers_.rend(); ++it) {
    if (it->first == name) return static_cast<int>(it->second);
  }
  return -1;
}

void DepGraph::RegisterProducer(const std::string& name, uint32_t node) {
  producers_.emplace_back(name, node);
}

std::string DepGraph::OutputNameOf(uint32_t node) const {
  for (const auto& [name, id] : producers_) {
    if (id == node) return name;
  }
  return StrFormat("node%u", node);
}

std::vector<uint32_t> DepGraph::TopoOrder() const {
  std::vector<uint32_t> indeg(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    indeg[n.id] = static_cast<uint32_t>(n.inputs.size());
  }
  std::deque<uint32_t> ready;
  for (const auto& n : nodes_) {
    if (indeg[n.id] == 0) ready.push_back(n.id);
  }
  std::vector<uint32_t> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    uint32_t id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (uint32_t c : nodes_[id].consumers) {
      if (--indeg[c] == 0) ready.push_back(c);
    }
  }
  return order;
}

std::string DepGraph::ToDot() const {
  std::ostringstream os;
  os << "digraph deps {\n  rankdir=BT;\n";
  for (const auto& n : nodes_) {
    os << StrFormat("  n%u [label=\"%s\"];\n", n.id, n.label.c_str());
  }
  for (const auto& n : nodes_) {
    for (uint32_t c : n.consumers) {
      os << StrFormat("  n%u -> n%u;\n", n.id, c);
    }
  }
  os << "}\n";
  return os.str();
}

namespace {

bool NodeEligible(const DepNode& n, const PartitionConstraints& c,
                  bool filters) {
  switch (n.kind) {
    case SkeletonKind::kFilter:
      return filters;
    case SkeletonKind::kGather:
    case SkeletonKind::kScatter:
      return c.allow_scatter_gather;
    case SkeletonKind::kMerge:
      return false;  // complex op; hinders vectorization (paper §III-B)
    case SkeletonKind::kExpand:
      // Expand crosses row domains: its output length is data-dependent
      // (the hash-join fan-out), so it can never share a fixed-n trace
      // with its chunk-domain inputs. Keeping it out of traces also keeps
      // every domain-crossing edge out of compiled code — pair-domain
      // consumers connect to the probe domain only through expand or
      // through chunk-base gathers, which codegen declines.
      return false;
    default:
      return true;
  }
}

// Count the memory streams of a candidate region: external arrays plus
// values crossing the region boundary.
size_t CountStreams(const DepGraph& g, const std::set<uint32_t>& region) {
  std::set<std::string> streams;
  for (uint32_t id : region) {
    const DepNode& n = g.nodes()[id];
    for (const auto& r : n.external_reads) streams.insert("D:" + r);
    for (const auto& w : n.external_writes) streams.insert("D:" + w);
    for (uint32_t in : n.inputs) {
      if (!region.contains(in)) streams.insert("V:" + g.OutputNameOf(in));
    }
    bool escapes = false;
    for (uint32_t c : n.consumers) {
      if (!region.contains(c)) escapes = true;
    }
    if (escapes) streams.insert("V:" + g.OutputNameOf(id));
  }
  return streams.size();
}

}  // namespace

int StmtConvexityViolation(const DepGraph& graph,
                           const std::set<uint32_t>& region) {
  uint32_t anchor = UINT32_MAX, last = 0;
  for (uint32_t id : region) {
    anchor = std::min(anchor, graph.nodes()[id].stmt_index);
    last = std::max(last, graph.nodes()[id].stmt_index);
  }
  // Value edges: inputs must predate the anchor.
  for (uint32_t id : region) {
    for (uint32_t in : graph.nodes()[id].inputs) {
      if (!region.contains(in) &&
          graph.nodes()[in].stmt_index >= anchor) {
        return static_cast<int>(in);
      }
    }
  }
  // Data arrays the region touches.
  std::set<std::string> reads, writes;
  for (uint32_t id : region) {
    const DepNode& n = graph.nodes()[id];
    reads.insert(n.external_reads.begin(), n.external_reads.end());
    writes.insert(n.external_writes.begin(), n.external_writes.end());
  }
  // A fused read-after-write of one array would see pre-write data
  // (compiled data writes publish after the call).
  for (uint32_t id : region) {
    for (const auto& r : graph.nodes()[id].external_reads) {
      if (writes.contains(r)) return static_cast<int>(id);
    }
  }
  // Outside accessors inside the statement span: an interpreted write to
  // an array the region reads (or writes), or an interpreted read of an
  // array the region writes, would observe/produce a different order than
  // statement-by-statement interpretation.
  for (const DepNode& n : graph.nodes()) {
    if (region.contains(n.id)) continue;
    if (n.stmt_index < anchor || n.stmt_index > last) continue;
    for (const auto& w : n.external_writes) {
      if (reads.contains(w) || writes.contains(w)) {
        return static_cast<int>(n.id);
      }
    }
    for (const auto& r : n.external_reads) {
      if (writes.contains(r)) return static_cast<int>(n.id);
    }
  }
  return -1;
}

int StmtConvexityViolation(const DepGraph& graph,
                           const std::vector<uint32_t>& region) {
  return StmtConvexityViolation(
      graph, std::set<uint32_t>(region.begin(), region.end()));
}

std::vector<std::string> Trace::ChunkVarInputs(
    const dsl::Program& program) const {
  std::vector<std::string> out;
  for (const auto& name : inputs) {
    if (program.FindData(name) == nullptr) out.push_back(name);
  }
  return out;
}

namespace {

bool HoldsFilter(const DepGraph& graph, const std::set<uint32_t>& region) {
  for (uint32_t id : region) {
    if (graph.nodes()[id].kind == SkeletonKind::kFilter) return true;
  }
  return false;
}

// Grow a region from `seed`: repeatedly add the highest-cost unvisited
// eligible neighbor that keeps the stream budget and statement convexity.
// `filters` says whether filter nodes are eligible.
std::set<uint32_t> GrowRegion(const DepGraph& graph,
                              std::span<const double> cost, uint32_t seed,
                              const std::vector<bool>& visited,
                              const PartitionConstraints& constraints,
                              bool filters) {
  const auto& nodes = graph.nodes();
  std::set<uint32_t> region{seed};
  while (region.size() < constraints.max_nodes) {
    int best = -1;
    for (uint32_t id : region) {
      auto consider = [&](uint32_t cand) {
        if (visited[cand] || region.contains(cand)) return;
        if (!NodeEligible(nodes[cand], constraints, filters)) return;
        std::set<uint32_t> tentative = region;
        tentative.insert(cand);
        if (CountStreams(graph, tentative) > constraints.max_streams) return;
        if (StmtConvexityViolation(graph, tentative) >= 0) return;
        if (best < 0 || cost[cand] > cost[static_cast<size_t>(best)]) {
          best = static_cast<int>(cand);
        }
      };
      for (uint32_t in : nodes[id].inputs) consider(in);
      for (uint32_t c : nodes[id].consumers) consider(c);
    }
    if (best < 0) break;
    region.insert(static_cast<uint32_t>(best));
  }
  return region;
}

// The trace of a region: its nodes in topological order, its cost, and the
// names crossing its boundary.
Trace MakeTrace(const DepGraph& graph, std::span<const double> cost,
                const std::set<uint32_t>& region,
                const std::vector<uint32_t>& topo_pos) {
  const auto& nodes = graph.nodes();
  Trace t;
  for (uint32_t id : region) {
    t.total_cost += cost[id];
    t.node_ids.push_back(id);
  }
  std::sort(t.node_ids.begin(), t.node_ids.end(),
            [&](uint32_t a, uint32_t b) { return topo_pos[a] < topo_pos[b]; });
  std::set<std::string> ins, outs;
  for (uint32_t id : region) {
    const DepNode& n = nodes[id];
    for (const auto& r : n.external_reads) ins.insert(r);
    for (const auto& w : n.external_writes) outs.insert(w);
    for (uint32_t in : n.inputs) {
      if (!region.contains(in)) ins.insert(graph.OutputNameOf(in));
    }
    bool escapes = false;
    for (uint32_t c : n.consumers) {
      if (!region.contains(c)) escapes = true;
    }
    if (escapes) outs.insert(graph.OutputNameOf(id));
  }
  t.inputs.assign(ins.begin(), ins.end());
  t.outputs.assign(outs.begin(), outs.end());
  return t;
}

}  // namespace

std::vector<Trace> GreedyPartition(const DepGraph& graph,
                                   const PartitionConstraints& constraints,
                                   const TraceAcceptor& accept,
                                   std::span<const double> costs) {
  const auto& nodes = graph.nodes();
  std::vector<double> own_costs;
  if (costs.empty()) {
    for (const auto& n : nodes) own_costs.push_back(n.cost);
    costs = own_costs;
  }
  std::vector<bool> visited(nodes.size(), false);
  std::vector<Trace> traces;

  auto topo = graph.TopoOrder();
  std::vector<uint32_t> topo_pos(nodes.size(), 0);
  for (size_t i = 0; i < topo.size(); ++i) topo_pos[topo[i]] = i;

  while (true) {
    // Seed: most expensive unvisited eligible node.
    int seed = -1;
    for (const auto& n : nodes) {
      if (visited[n.id] || !NodeEligible(n, constraints, true)) continue;
      if (seed < 0 || costs[n.id] > costs[static_cast<size_t>(seed)]) {
        seed = static_cast<int>(n.id);
      }
    }
    if (seed < 0) break;
    const uint32_t s = static_cast<uint32_t>(seed);

    std::set<uint32_t> region =
        GrowRegion(graph, costs, s, visited, constraints, /*filters=*/true);
    Trace t = MakeTrace(graph, costs, region, topo_pos);
    if (accept && HoldsFilter(graph, region) && !accept(t)) {
      // Rejected with a filter in it: a filter seed stays interpreted;
      // any other seed grows again without filters (the §III-B region).
      if (nodes[s].kind == SkeletonKind::kFilter) {
        visited[s] = true;
        continue;
      }
      region =
          GrowRegion(graph, costs, s, visited, constraints, /*filters=*/false);
      t = MakeTrace(graph, costs, region, topo_pos);
    }
    for (uint32_t id : region) visited[id] = true;
    traces.push_back(std::move(t));
  }
  std::sort(traces.begin(), traces.end(),
            [](const Trace& a, const Trace& b) {
              return a.total_cost > b.total_cost;
            });
  return traces;
}

}  // namespace avm::ir
