#include "graph/algorithms.hpp"

#include <algorithm>

namespace lcs::graph {

namespace {

/// Reusable buffers of the 64-source bit-parallel BFS (MS-BFS, Then et
/// al., VLDB 2014): bit i of a vertex's word stands for source i of the
/// current block.
struct MsBfsScratch {
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> next;
};

/// Largest eccentricity among the `count` (1..64) sources first, first+1,
/// ... of a connected graph: all of them advance one BFS level per sweep.
/// A level is one pass over the vertices that some source of the block has
/// not reached yet, OR-ing the frontier words of their neighbours, so the
/// block costs O(ecc * (n + m)) word operations instead of 64 scalar BFSs.
/// The block's answer is the last level at which any source reached a new
/// vertex.
std::uint32_t block_eccentricity(const Graph& g, VertexId first, std::uint32_t count,
                                 MsBfsScratch& s) {
  const std::uint32_t n = g.num_vertices();
  const std::uint64_t all = count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  s.seen.assign(n, 0);
  s.frontier.assign(n, 0);
  s.next.resize(n);
  for (std::uint32_t i = 0; i < count; ++i) {
    s.seen[first + i] = std::uint64_t{1} << i;
    s.frontier[first + i] = std::uint64_t{1} << i;
  }
  std::uint32_t depth = 0;
  for (;;) {
    bool grew = false;
    for (VertexId v = 0; v < n; ++v) {
      std::uint64_t reach = 0;
      if (s.seen[v] != all) {
        for (const HalfEdge he : g.neighbors(v)) reach |= s.frontier[he.to];
        reach &= ~s.seen[v];
        s.seen[v] |= reach;
        grew = grew || reach != 0;
      }
      s.next[v] = reach;
    }
    if (!grew) return depth;
    ++depth;
    s.frontier.swap(s.next);
  }
}

BfsResult bfs_impl(const Graph& g, const std::vector<VertexId>& sources,
                   std::uint32_t depth_cap) {
  const std::uint32_t n = g.num_vertices();
  BfsResult r;
  r.dist.assign(n, kUnreached);
  r.parent.assign(n, kNoVertex);
  r.parent_edge.assign(n, kNoEdge);

  std::vector<VertexId> frontier;
  for (VertexId s : sources) {
    LCS_REQUIRE(s < n, "BFS source out of range");
    if (r.dist[s] == kUnreached) {
      r.dist[s] = 0;
      frontier.push_back(s);
      ++r.reached;
    }
  }
  std::uint32_t depth = 0;
  std::vector<VertexId> next;
  while (!frontier.empty() && depth < depth_cap) {
    next.clear();
    for (VertexId u : frontier) {
      for (const HalfEdge he : g.neighbors(u)) {
        if (r.dist[he.to] != kUnreached) continue;
        r.dist[he.to] = depth + 1;
        r.parent[he.to] = u;
        r.parent_edge[he.to] = he.edge;
        next.push_back(he.to);
        ++r.reached;
      }
    }
    frontier.swap(next);
    if (!frontier.empty()) r.max_dist = ++depth;
  }
  return r;
}

}  // namespace

BfsResult bfs(const Graph& g, VertexId source) {
  return bfs_impl(g, {source}, kUnreached);
}

BfsResult bfs_truncated(const Graph& g, VertexId source, std::uint32_t depth_cap) {
  return bfs_impl(g, {source}, depth_cap);
}

BfsResult bfs_multi(const Graph& g, const std::vector<VertexId>& sources) {
  LCS_REQUIRE(!sources.empty(), "multi-source BFS needs at least one source");
  return bfs_impl(g, sources, kUnreached);
}

std::vector<VertexId> extract_path(const BfsResult& r, VertexId target) {
  LCS_REQUIRE(target < r.dist.size(), "target out of range");
  if (r.dist[target] == kUnreached) return {};
  std::vector<VertexId> path{target};
  VertexId cur = target;
  while (r.parent[cur] != kNoVertex) {
    cur = r.parent[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Components connected_components(const Graph& g) {
  const std::uint32_t n = g.num_vertices();
  Components c;
  c.id.assign(n, kUnreached);
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (c.id[s] != kUnreached) continue;
    c.id[s] = c.count;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (const HalfEdge he : g.neighbors(u)) {
        if (c.id[he.to] == kUnreached) {
          c.id[he.to] = c.count;
          stack.push_back(he.to);
        }
      }
    }
    ++c.count;
  }
  return c;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return bfs(g, 0).reached == g.num_vertices();
}

std::uint32_t diameter_exact(const Graph& g) {
  LCS_REQUIRE(g.num_vertices() > 0, "diameter of empty graph");
  LCS_REQUIRE(is_connected(g), "diameter of a disconnected graph is infinite");
  const std::uint32_t n = g.num_vertices();
  // All-pairs BFS, 64 sources at a time, reusing one scratch across blocks.
  MsBfsScratch scratch;
  std::uint32_t best = 0;
  for (VertexId first = 0; first < n; first += 64) {
    const std::uint32_t width = std::min<std::uint32_t>(64, n - first);
    best = std::max(best, block_eccentricity(g, first, width, scratch));
  }
  return best;
}

std::uint32_t diameter_double_sweep(const Graph& g, unsigned sweeps) {
  return diameter_bounds(g, sweeps).lb;
}

DiameterBounds diameter_bounds(const Graph& g, unsigned sweeps) {
  LCS_REQUIRE(g.num_vertices() > 0, "diameter of empty graph");
  DiameterBounds out;
  std::uint32_t best = 0;
  VertexId start = 0;
  for (unsigned i = 0; i < sweeps; ++i) {
    const BfsResult a = bfs(g, start);
    if (i == 0) out.ub = 2 * a.max_dist;  // start is vertex 0
    // Farthest vertex from `start`.
    VertexId far = start;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (a.dist[v] != kUnreached && a.dist[v] > a.dist[far]) far = v;
    const BfsResult b = bfs(g, far);
    best = std::max(best, b.max_dist);
    // Restart from the far end of the second sweep.
    VertexId far2 = far;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (b.dist[v] != kUnreached && b.dist[v] > b.dist[far2]) far2 = v;
    if (far2 == start) break;
    start = far2;
  }
  out.lb = best;
  return out;
}

std::uint32_t eccentricity(const Graph& g, VertexId v) { return bfs(g, v).max_dist; }

EdgeInducedSubgraph::EdgeInducedSubgraph(const Graph& parent,
                                         const std::vector<EdgeId>& edge_ids) {
  parent_to_local_.assign(parent.num_vertices(), kNoVertex);
  std::vector<std::pair<VertexId, VertexId>> local_edges;
  local_edges.reserve(edge_ids.size());
  auto local_of = [&](VertexId pv) {
    if (parent_to_local_[pv] == kNoVertex) {
      parent_to_local_[pv] = static_cast<VertexId>(to_parent_.size());
      to_parent_.push_back(pv);
    }
    return parent_to_local_[pv];
  };
  for (const EdgeId e : edge_ids) {
    const Edge ed = parent.edge(e);
    local_edges.emplace_back(local_of(ed.u), local_of(ed.v));
  }
  local_ = Graph::from_edges(static_cast<std::uint32_t>(to_parent_.size()),
                             std::move(local_edges));
}

std::optional<VertexId> EdgeInducedSubgraph::to_local(VertexId parent) const {
  LCS_REQUIRE(parent < parent_to_local_.size(), "parent vertex out of range");
  const VertexId l = parent_to_local_[parent];
  if (l == kNoVertex) return std::nullopt;
  return l;
}

bool EdgeInducedSubgraph::contains_all(const std::vector<VertexId>& parent_vertices) const {
  for (const VertexId pv : parent_vertices)
    if (!to_local(pv).has_value()) return false;
  return true;
}

std::optional<std::uint32_t> cover_radius(const EdgeInducedSubgraph& sub, VertexId source,
                                          const std::vector<VertexId>& targets) {
  const auto src_local = sub.to_local(source);
  if (!src_local.has_value()) return std::nullopt;
  const BfsResult r = bfs(sub.local_graph(), *src_local);
  std::uint32_t radius = 0;
  for (const VertexId t : targets) {
    const auto tl = sub.to_local(t);
    if (!tl.has_value() || !r.reached_vertex(*tl)) return std::nullopt;
    radius = std::max(radius, r.dist[*tl]);
  }
  return radius;
}

std::vector<EdgeId> bridges(const Graph& g) {
  const std::uint32_t n = g.num_vertices();
  std::vector<EdgeId> out;
  std::vector<std::uint32_t> disc(n, kUnreached);
  std::vector<std::uint32_t> low(n, 0);

  // Iterative DFS; each frame remembers its position in the adjacency list
  // and the edge taken to enter the vertex (parallel-edge safe via edge id).
  struct Frame {
    VertexId v;
    EdgeId in_edge;
    std::size_t next;
  };
  std::uint32_t timer = 0;
  std::vector<Frame> stack;
  for (VertexId root = 0; root < n; ++root) {
    if (disc[root] != kUnreached) continue;
    stack.push_back({root, kNoEdge, 0});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto nbrs = g.neighbors(f.v);
      if (f.next < nbrs.size()) {
        const HalfEdge he = nbrs[f.next++];
        if (he.edge == f.in_edge) continue;
        if (disc[he.to] == kUnreached) {
          disc[he.to] = low[he.to] = timer++;
          stack.push_back({he.to, he.edge, 0});
        } else {
          low[f.v] = std::min(low[f.v], disc[he.to]);
        }
      } else {
        const Frame done = f;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& up = stack.back();
          low[up.v] = std::min(low[up.v], low[done.v]);
          if (low[done.v] > disc[up.v]) out.push_back(done.in_edge);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lcs::graph
