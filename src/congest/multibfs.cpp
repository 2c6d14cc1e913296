#include "congest/multibfs.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lcs::congest {

namespace {
constexpr std::uint32_t kMultiBfsToken = 10;
}  // namespace

MultiBfsProgram::MultiBfsProgram(const Graph& g, std::vector<BfsInstanceSpec> specs)
    : g_(&g), inst_(specs.size()), queues_(g) {
  const std::uint32_t n = g.num_vertices();
  bool has_isolated = false;
  for (VertexId v = 0; v < n && !has_isolated; ++v) has_isolated = g.degree(v) == 0;

  // All-of-G instances share one block: members 0..n-1 and G's CSR with
  // each entry's outgoing slot, built at the first such instance.
  constexpr std::size_t kUnbuilt = static_cast<std::size_t>(-1);
  std::size_t whole_member_base = kUnbuilt;
  std::size_t whole_hop_base = 0;
  // Local id of each member of the instance being built (entries of
  // earlier instances go stale but are never read: only this instance's
  // members are looked up).
  std::vector<std::uint32_t> local(n, 0);
  std::vector<std::uint64_t> fill;

  std::size_t state_size = 0;
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
      if (whole_member_base == kUnbuilt) {
        whole_member_base = members_.size();
        for (VertexId v = 0; v < n; ++v) members_.push_back(v);
        whole_hop_base = hop_off_.size();
        const std::size_t hop_start = hops_.size();
        for (const std::uint64_t off : g.csr_offsets()) hop_off_.push_back(hop_start + off);
        const std::span<const graph::HalfEdge> adj = g.csr_adjacency();
        const std::vector<std::uint32_t> slots = csr_out_slots(g);
        for (std::size_t p = 0; p < adj.size(); ++p)
          hops_.push_back(Hop{adj[p].to, adj[p].edge, slots[p]});
      }
      in.size = n;
      in.member_base = whole_member_base;
      in.hop_base = whole_hop_base;
      in.root_local = spec.root;
    } else {
      // Member set: edge endpoints plus the root, sorted.
      in.member_base = members_.size();
      members_.push_back(spec.root);
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        members_.push_back(ed.u);
        members_.push_back(ed.v);
      }
      const auto first = members_.begin() + static_cast<std::ptrdiff_t>(in.member_base);
      std::sort(first, members_.end());
      members_.erase(std::unique(first, members_.end()), members_.end());
      in.size = static_cast<std::uint32_t>(members_.size() - in.member_base);
      for (std::uint32_t k = 0; k < in.size; ++k) local[members_[in.member_base + k]] = k;
      in.root_local = local[spec.root];

      // Local adjacency CSR over members, each list in edge-id order.
      in.hop_base = hop_off_.size();
      hop_off_.resize(in.hop_base + in.size + 1, 0);
      std::uint64_t* off = hop_off_.data() + in.hop_base;
      off[0] = hops_.size();
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        ++off[local[ed.u] + 1];
        ++off[local[ed.v] + 1];
      }
      for (std::uint32_t k = 0; k < in.size; ++k) off[k + 1] += off[k];
      fill.assign(off, off + in.size);
      hops_.resize(hops_.size() + 2 * edges.size());
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        const std::uint32_t lu = local[ed.u];
        const std::uint32_t lv = local[ed.v];
        hops_[fill[lu]++] = Hop{lv, e, 2 * e};
        hops_[fill[lv]++] = Hop{lu, e, 2 * e + 1};
      }
    }
    in.state_base = state_size;
    state_size += in.size;
  }
  state_.reserve(state_size);
  for (std::size_t i = 0; i < inst_.size(); ++i)
    for (const VertexId v : members(i))
      state_.push_back(State{graph::kUnreached, graph::kNoVertex, graph::kNoEdge, v});

  // Instances by root, in instance order (a counting sort).
  rooted_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Instance& in : inst_) ++rooted_offsets_[in.root + 1];
  for (std::uint32_t v = 0; v < n; ++v) rooted_offsets_[v + 1] += rooted_offsets_[v];
  rooted_.resize(inst_.size());
  std::vector<std::uint32_t> next(rooted_offsets_.begin(), rooted_offsets_.end() - 1);
  for (std::size_t i = 0; i < inst_.size(); ++i)
    rooted_[next[inst_[i].root]++] = static_cast<std::uint32_t>(i);
}

std::uint32_t MultiBfsProgram::local_of(std::size_t i, VertexId v) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  const Instance& in = inst_[i];
  if (in.whole_graph) return v < in.size ? v : graph::kUnreached;
  const std::span<const VertexId> mem = members(i);
  const auto it = std::lower_bound(mem.begin(), mem.end(), v);
  return it != mem.end() && *it == v ? static_cast<std::uint32_t>(it - mem.begin())
                                     : graph::kUnreached;
}

void MultiBfsProgram::adopt_and_enqueue(std::size_t i, std::uint32_t local, std::uint32_t d,
                                        VertexId par, EdgeId par_edge, std::uint32_t round) {
  Instance& in = inst_[i];
  State& st = state_[in.state_base + local];
  if (st.dist != graph::kUnreached) return;
  st.dist = d;
  st.parent = par;
  st.parent_edge = par_edge;
  in.last_adoption = round;
  in.max_depth = std::max(in.max_depth, d);
  if (d >= in.depth_cap) return;
  // Enqueue forwarding tokens on every instance-local incident edge; each
  // names its receiver's local id.
  const VertexId v = st.vertex;
  const std::uint64_t* off = hop_off_.data() + in.hop_base + local;
  for (std::uint64_t k = off[0]; k < off[1]; ++k) {
    const Hop h = hops_[k];
    Message m;
    m.algo = static_cast<std::uint32_t>(i);
    m.kind = kMultiBfsToken;
    m.a = (static_cast<std::uint64_t>(h.to) << 32) | d;
    m.b = (static_cast<std::uint64_t>(h.edge) << 32) | v;
    queues_.push(v, h.slot, m);
  }
}

void MultiBfsProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  const std::uint32_t round = ctx.round();

  // Delayed starts: registered in round 0, run at their round.
  for (std::uint32_t k = rooted_offsets_[v]; k < rooted_offsets_[v + 1]; ++k) {
    const std::uint32_t i = rooted_[k];
    if (inst_[i].start_round == round) {
      adopt_and_enqueue(i, inst_[i].root_local, 0, graph::kNoVertex, graph::kNoEdge, round);
      ++started_;
    } else if (round == 0) {
      ctx.wake_at(inst_[i].start_round);
    }
  }

  // Token receipt.
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kMultiBfsToken) continue;
    const std::size_t i = m.algo;
    const std::uint32_t local = static_cast<std::uint32_t>(m.a >> 32);
    const Instance& in = inst_[i];
    LCS_CHECK(local < in.size && state_[in.state_base + local].vertex == v,
              "token reached a non-member vertex");
    if (state_[in.state_base + local].dist != graph::kUnreached) continue;  // adopted before
    const std::uint32_t d = static_cast<std::uint32_t>(m.a) + 1;
    adopt_and_enqueue(i, local, d, static_cast<VertexId>(m.b), static_cast<EdgeId>(m.b >> 32),
                      round);
  }

  // Drain queues: up to the capacity per incident edge direction per round.
  queues_.drain(ctx);
}

std::uint32_t MultiBfsProgram::dist_of(std::size_t i, VertexId v) const {
  const std::uint32_t local = local_of(i, v);
  return local == graph::kUnreached ? graph::kUnreached : state_[inst_[i].state_base + local].dist;
}

VertexId MultiBfsProgram::parent_of(std::size_t i, VertexId v) const {
  const std::uint32_t local = local_of(i, v);
  return local == graph::kUnreached ? graph::kNoVertex
                                     : state_[inst_[i].state_base + local].parent;
}

EdgeId MultiBfsProgram::parent_edge_of(std::size_t i, VertexId v) const {
  const std::uint32_t local = local_of(i, v);
  return local == graph::kUnreached ? graph::kNoEdge
                                     : state_[inst_[i].state_base + local].parent_edge;
}

std::uint32_t MultiBfsProgram::last_adoption_round(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].last_adoption;
}

std::uint32_t MultiBfsProgram::max_depth(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].max_depth;
}

std::span<const VertexId> MultiBfsProgram::members(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return {members_.data() + inst_[i].member_base, inst_[i].size};
}

MultiBfsOutcome run_multi_bfs(const Graph& g, MultiBfsProgram& program,
                              std::uint32_t max_rounds) {
  Simulator sim(g, 1);
  MultiBfsOutcome out;
  out.stats = sim.run(program, max_rounds);
  return out;
}

}  // namespace lcs::congest
