#include "congest/multibfs.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace lcs::congest {

namespace {
constexpr std::uint32_t kMultiBfsToken = 10;

std::uint32_t rank_of(const std::vector<VertexId>& sorted, VertexId v) {
  return static_cast<std::uint32_t>(std::lower_bound(sorted.begin(), sorted.end(), v) -
                                    sorted.begin());
}
}  // namespace

MultiBfsProgram::MultiBfsProgram(const Graph& g, std::vector<BfsInstanceSpec> specs)
    : g_(&g), inst_(specs.size()), queues_(g) {
  const std::uint32_t n = g.num_vertices();
  bool has_isolated = false;
  for (VertexId v = 0; v < n && !has_isolated; ++v) has_isolated = g.degree(v) == 0;

  for (std::size_t i = 0; i < specs.size(); ++i) {
    BfsInstanceSpec& spec = specs[i];
    LCS_REQUIRE(spec.root < n, "instance root out of range");
    Instance& in = inst_[i];
    in.root = spec.root;
    in.depth_cap = spec.depth_cap;
    in.start_round = spec.start_round;

    std::vector<EdgeId>& edges = spec.edges;
    if (!std::is_sorted(edges.begin(), edges.end())) std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (!edges.empty()) (void)g.edge(edges.back());  // range check

    in.whole_graph = edges.size() == g.num_edges() && !has_isolated;
    if (in.whole_graph) {
      // Every vertex is an endpoint, so the members are 0..n-1 and G's CSR
      // (per-vertex edge-id order, like the local CSR below) is the
      // instance's adjacency.
      in.members.resize(n);
      std::iota(in.members.begin(), in.members.end(), VertexId{0});
      in.offsets = g.csr_offsets();
      in.adj = g.csr_adjacency();
    } else {
      // Member set: edge endpoints plus the root.
      in.members.reserve(2 * edges.size() + 1);
      in.members.push_back(spec.root);
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        in.members.push_back(ed.u);
        in.members.push_back(ed.v);
      }
      std::sort(in.members.begin(), in.members.end());
      in.members.erase(std::unique(in.members.begin(), in.members.end()), in.members.end());

      // Local adjacency CSR over members, each list in edge-id order.
      in.own_offsets.assign(in.members.size() + 1, 0);
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        ++in.own_offsets[rank_of(in.members, ed.u) + 1];
        ++in.own_offsets[rank_of(in.members, ed.v) + 1];
      }
      for (std::size_t k = 0; k < in.members.size(); ++k)
        in.own_offsets[k + 1] += in.own_offsets[k];
      in.own_adj.resize(2 * edges.size());
      std::vector<std::uint64_t> fill(in.own_offsets.begin(), in.own_offsets.end() - 1);
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        const std::uint32_t lu = rank_of(in.members, ed.u);
        const std::uint32_t lv = rank_of(in.members, ed.v);
        in.own_adj[fill[lu]++] = graph::HalfEdge{lv, e};
        in.own_adj[fill[lv]++] = graph::HalfEdge{lu, e};
      }
      in.offsets = in.own_offsets;
      in.adj = in.own_adj;
    }
    in.root_local = in.whole_graph ? spec.root : rank_of(in.members, spec.root);

    in.dist.assign(in.members.size(), graph::kUnreached);
    in.parent.assign(in.members.size(), graph::kNoVertex);
    in.parent_edge.assign(in.members.size(), graph::kNoEdge);
  }

  // Instances by root, in instance order (a counting sort).
  rooted_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Instance& in : inst_) ++rooted_offsets_[in.root + 1];
  for (std::uint32_t v = 0; v < n; ++v) rooted_offsets_[v + 1] += rooted_offsets_[v];
  rooted_.resize(inst_.size());
  std::vector<std::uint32_t> fill(rooted_offsets_.begin(), rooted_offsets_.end() - 1);
  for (std::size_t i = 0; i < inst_.size(); ++i)
    rooted_[fill[inst_[i].root]++] = static_cast<std::uint32_t>(i);
}

std::uint32_t MultiBfsProgram::local_of(std::size_t i, VertexId v) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  const Instance& in = inst_[i];
  if (in.whole_graph) return v < in.members.size() ? v : graph::kUnreached;
  const std::uint32_t k = rank_of(in.members, v);
  return k < in.members.size() && in.members[k] == v ? k : graph::kUnreached;
}

void MultiBfsProgram::adopt_and_enqueue(std::size_t i, std::uint32_t local, std::uint32_t d,
                                        VertexId par, EdgeId par_edge, std::uint32_t round) {
  Instance& in = inst_[i];
  if (in.dist[local] != graph::kUnreached) return;
  in.dist[local] = d;
  in.parent[local] = par;
  in.parent_edge[local] = par_edge;
  in.last_adoption = round;
  in.max_depth = std::max(in.max_depth, d);
  if (d >= in.depth_cap) return;
  // Enqueue forwarding tokens on every instance-local incident edge; each
  // names its receiver's local id.
  const VertexId v = in.members[local];
  for (std::uint64_t k = in.offsets[local]; k < in.offsets[local + 1]; ++k) {
    const graph::HalfEdge he = in.adj[k];
    Message m;
    m.algo = static_cast<std::uint32_t>(i);
    m.kind = kMultiBfsToken;
    m.a = (static_cast<std::uint64_t>(he.to) << 32) | d;
    m.b = (static_cast<std::uint64_t>(he.edge) << 32) | v;
    queues_.push(v, he.edge, m);
  }
}

void MultiBfsProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  const std::uint32_t round = ctx.round();

  // Delayed starts.
  for (std::uint32_t k = rooted_offsets_[v]; k < rooted_offsets_[v + 1]; ++k) {
    const std::uint32_t i = rooted_[k];
    if (inst_[i].start_round == round) {
      adopt_and_enqueue(i, inst_[i].root_local, 0, graph::kNoVertex, graph::kNoEdge, round);
      ++started_;
    }
  }

  // Token receipt.
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kMultiBfsToken) continue;
    const std::size_t i = m.algo;
    const std::uint32_t local = static_cast<std::uint32_t>(m.a >> 32);
    const Instance& in = inst_[i];
    LCS_CHECK(local < in.members.size() && in.members[local] == v,
              "token reached a non-member vertex");
    const std::uint32_t d = static_cast<std::uint32_t>(m.a) + 1;
    adopt_and_enqueue(i, local, d, static_cast<VertexId>(m.b), static_cast<EdgeId>(m.b >> 32),
                      round);
  }

  // Drain queues: up to the capacity per incident edge direction per round.
  queues_.drain(ctx);
}

std::uint32_t MultiBfsProgram::dist_of(std::size_t i, VertexId v) const {
  const std::uint32_t local = local_of(i, v);
  return local == graph::kUnreached ? graph::kUnreached : inst_[i].dist[local];
}

VertexId MultiBfsProgram::parent_of(std::size_t i, VertexId v) const {
  const std::uint32_t local = local_of(i, v);
  return local == graph::kUnreached ? graph::kNoVertex : inst_[i].parent[local];
}

EdgeId MultiBfsProgram::parent_edge_of(std::size_t i, VertexId v) const {
  const std::uint32_t local = local_of(i, v);
  return local == graph::kUnreached ? graph::kNoEdge : inst_[i].parent_edge[local];
}

std::uint32_t MultiBfsProgram::last_adoption_round(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].last_adoption;
}

std::uint32_t MultiBfsProgram::max_depth(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].max_depth;
}

const std::vector<VertexId>& MultiBfsProgram::members(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].members;
}

MultiBfsOutcome run_multi_bfs(const Graph& g, MultiBfsProgram& program,
                              std::uint32_t max_rounds) {
  Simulator sim(g, 1);
  MultiBfsOutcome out;
  out.stats = sim.run(program, max_rounds);
  return out;
}

}  // namespace lcs::congest
