#include "congest/multibfs.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace lcs::congest {

namespace {
constexpr std::uint32_t kMultiBfsToken = 10;
}  // namespace

MultiBfsProgram::MultiBfsProgram(const Graph& g, std::vector<BfsInstanceSpec> specs)
    : MultiBfsProgram(g) {
  std::vector<BfsInstanceView> views(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::vector<EdgeId>& edges = specs[i].edges;
    if (!std::is_sorted(edges.begin(), edges.end())) std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    views[i] = {specs[i].root, edges, specs[i].depth_cap, specs[i].start_round};
  }
  reset(views);
}

MultiBfsProgram::MultiBfsProgram(const Graph& g)
    : g_(&g), local_(g.num_vertices(), 0), queues_(g) {
  for (VertexId v = 0; v < g.num_vertices() && !has_isolated_; ++v)
    has_isolated_ = g.degree(v) == 0;
  rooted_offsets_.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
}

void MultiBfsProgram::build_whole_graph_block() {
  const Graph& g = *g_;
  members_.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) members_[v] = v;
  const std::span<const std::uint64_t> offsets = g.csr_offsets();
  hop_off_.assign(offsets.begin(), offsets.end());
  const std::span<const graph::HalfEdge> adj = g.csr_adjacency();
  const std::vector<std::uint32_t> slots = csr_out_slots(g);
  hops_.resize(adj.size());
  for (std::size_t p = 0; p < adj.size(); ++p) hops_[p] = Hop{adj[p].to, slots[p]};
  whole_built_ = true;
}

void MultiBfsProgram::reset(std::span<const BfsInstanceView> instances) {
  const Graph& g = *g_;
  const std::uint32_t n = g.num_vertices();
  // Validation first, so the first invalid instance throws before any
  // state changes.
  bool any_whole = false;
  for (const BfsInstanceView& view : instances) {
    LCS_REQUIRE(view.root < n, "instance root out of range");
    LCS_REQUIRE(std::adjacent_find(view.edges.begin(), view.edges.end(),
                                   std::greater_equal<EdgeId>()) == view.edges.end(),
                "instance edges must be ascending and distinct");
    if (!view.edges.empty()) (void)g.edge(view.edges.back());  // range check
    any_whole = any_whole || (view.edges.size() == g.num_edges() && !has_isolated_);
  }

  queues_.clear();
  started_ = 0;
  // All-of-G instances share one block: members 0..n-1 and G's CSR with
  // each entry's outgoing slot.  It sits at the front of the arrays and
  // survives resets; everything after it is this reset's.
  if (any_whole && !whole_built_) build_whole_graph_block();
  members_.resize(whole_built_ ? n : 0);
  hop_off_.resize(whole_built_ ? static_cast<std::size_t>(n) + 1 : 0);
  hops_.resize(whole_built_ ? 2 * static_cast<std::size_t>(g.num_edges()) : 0);

  inst_.resize(instances.size());
  std::size_t state_size = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const BfsInstanceView& view = instances[i];
    const std::span<const EdgeId> edges = view.edges;
    Instance& in = inst_[i];
    in = Instance{};
    in.root = view.root;
    in.depth_cap = view.depth_cap;
    in.start_round = view.start_round;
    in.whole_graph = edges.size() == g.num_edges() && !has_isolated_;
    if (in.whole_graph) {
      // Every vertex is an endpoint, so the members are 0..n-1 and G's CSR
      // (per-vertex edge-id order, like the local CSR below) is the
      // instance's adjacency.
      in.size = n;
      in.member_base = 0;
      in.hop_base = 0;
      in.root_local = view.root;
    } else {
      // Member set: edge endpoints plus the root, sorted.
      in.member_base = members_.size();
      members_.push_back(view.root);
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        members_.push_back(ed.u);
        members_.push_back(ed.v);
      }
      const auto first = members_.begin() + static_cast<std::ptrdiff_t>(in.member_base);
      std::sort(first, members_.end());
      members_.erase(std::unique(first, members_.end()), members_.end());
      in.size = static_cast<std::uint32_t>(members_.size() - in.member_base);
      for (std::uint32_t k = 0; k < in.size; ++k) local_[members_[in.member_base + k]] = k;
      in.root_local = local_[view.root];

      // Local adjacency CSR over members, each list in edge-id order.
      in.hop_base = hop_off_.size();
      hop_off_.resize(in.hop_base + in.size + 1, 0);
      std::uint64_t* off = hop_off_.data() + in.hop_base;
      off[0] = hops_.size();
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        ++off[local_[ed.u] + 1];
        ++off[local_[ed.v] + 1];
      }
      for (std::uint32_t k = 0; k < in.size; ++k) off[k + 1] += off[k];
      fill_.assign(off, off + in.size);
      hops_.resize(hops_.size() + 2 * edges.size());
      for (const EdgeId e : edges) {
        const graph::Edge ed = g.edge(e);
        const std::uint32_t lu = local_[ed.u];
        const std::uint32_t lv = local_[ed.v];
        hops_[fill_[lu]++] = Hop{lv, 2 * e};
        hops_[fill_[lv]++] = Hop{lu, 2 * e + 1};
      }
    }
    in.state_base = state_size;
    state_size += in.size;
  }
  state_.resize(state_size);
  for (const Instance& in : inst_)
    for (std::uint32_t k = 0; k < in.size; ++k)
      state_[in.state_base + k] =
          State{graph::kUnreached, graph::kNoVertex, kNoSlot, members_[in.member_base + k]};

  // Instances by root, in instance order (a counting sort; each cursor
  // ends at the next root's start and is shifted back into place).
  std::fill(rooted_offsets_.begin(), rooted_offsets_.end(), 0);
  for (const Instance& in : inst_) ++rooted_offsets_[in.root + 1];
  for (std::uint32_t v = 0; v < n; ++v) rooted_offsets_[v + 1] += rooted_offsets_[v];
  rooted_.resize(inst_.size());
  for (std::size_t i = 0; i < inst_.size(); ++i)
    rooted_[rooted_offsets_[inst_[i].root]++] = static_cast<std::uint32_t>(i);
  std::copy_backward(rooted_offsets_.begin(), rooted_offsets_.end() - 1, rooted_offsets_.end());
  rooted_offsets_[0] = 0;
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

void MultiBfsProgram::adopt_and_enqueue(NodeContext& ctx, std::size_t i, std::uint32_t local,
                                        std::uint32_t d, VertexId par, std::uint32_t up_slot) {
  Instance& in = inst_[i];
  State& st = state_[in.state_base + local];
  if (st.dist != graph::kUnreached) return;
  st.dist = d;
  st.parent = par;
  st.up_slot = up_slot;
  in.last_adoption = ctx.round();
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
    m.b = (static_cast<std::uint64_t>(h.slot ^ 1) << 32) | v;
    queues_.send_or_push(ctx, h.slot, m);
  }
}

void MultiBfsProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  const std::uint32_t round = ctx.round();

  // Delayed starts: registered in round 0, run at their round.
  for (std::uint32_t k = rooted_offsets_[v]; k < rooted_offsets_[v + 1]; ++k) {
    const std::uint32_t i = rooted_[k];
    if (inst_[i].start_round == round) {
      adopt_and_enqueue(ctx, i, inst_[i].root_local, 0, graph::kNoVertex, kNoSlot);
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
    adopt_and_enqueue(ctx, i, local, d, static_cast<VertexId>(m.b),
                      static_cast<std::uint32_t>(m.b >> 32));
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
  if (local == graph::kUnreached) return graph::kNoEdge;
  const std::uint32_t slot = state_[inst_[i].state_base + local].up_slot;
  return slot == kNoSlot ? graph::kNoEdge : slot / 2;
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
