#include "core/shortcut.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace lcs::core {

namespace {

// Exact diameter of the connected component of `leader` (a parent vertex)
// inside the subgraph.  Used when stray shortcut edges disconnect the
// augmented subgraph but the part itself is covered.
std::uint32_t leader_component_diameter(const graph::EdgeInducedSubgraph& sub,
                                        VertexId leader) {
  const Graph& local = sub.local_graph();
  const auto local_leader = sub.to_local(leader);
  LCS_CHECK(local_leader.has_value(), "leader must be in the covered subgraph");
  const graph::Components comp = graph::connected_components(local);
  const std::uint32_t cid = comp.id[*local_leader];
  std::vector<VertexId> remap(local.num_vertices(), graph::kNoVertex);
  std::uint32_t count = 0;
  for (VertexId v = 0; v < local.num_vertices(); ++v) {
    if (comp.id[v] == cid) remap[v] = count++;
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (EdgeId e = 0; e < local.num_edges(); ++e) {
    const graph::Edge ed = local.edge(e);
    if (comp.id[ed.u] == cid) edges.emplace_back(remap[ed.u], remap[ed.v]);
  }
  return graph::diameter_exact(Graph::from_edges(count, std::move(edges)));
}

}  // namespace

void PartMarks::mark(std::span<const VertexId> part) {
  if (++epoch_ == 0) {  // wrapped: stale stamps could match again
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  for (const VertexId v : part) {
    LCS_REQUIRE(v < stamp_.size(), "part vertex out of range");
    stamp_[v] = epoch_;
  }
}

std::vector<EdgeId> induced_part_edges(const Graph& g, const std::vector<VertexId>& part,
                                       PartMarks& marks) {
  LCS_REQUIRE(marks.size() == g.num_vertices(), "part marks do not match the graph");
  marks.mark(part);
  std::vector<EdgeId> out;
  for (const VertexId v : part) {
    for (const graph::HalfEdge he : g.neighbors(v)) {
      // Count each induced edge once (from its smaller endpoint).
      if (marks.marked(he.to) && v < he.to) out.push_back(he.edge);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeId> induced_part_edges(const Graph& g, const std::vector<VertexId>& part) {
  PartMarks marks(g.num_vertices());
  return induced_part_edges(g, part, marks);
}

bool is_all_edges(const Graph& g, const std::vector<EdgeId>& h_i) {
  return h_i.size() == g.num_edges() && !h_i.empty() && h_i.back() == g.num_edges() - 1 &&
         std::adjacent_find(h_i.begin(), h_i.end(), std::greater_equal<EdgeId>()) == h_i.end();
}

std::vector<EdgeId> augmented_edges(const Graph& g, const std::vector<VertexId>& part,
                                    const std::vector<EdgeId>& h_i) {
  PartMarks marks(g.num_vertices());
  return augmented_edges(g, part, h_i, marks);
}

std::vector<EdgeId> augmented_edges(const Graph& g, const std::vector<VertexId>& part,
                                    const std::vector<EdgeId>& h_i, PartMarks& marks) {
  // H_i = all of E (KP at p = 1) already is the sorted, deduplicated union.
  if (is_all_edges(g, h_i)) {
    for (const VertexId v : part) LCS_REQUIRE(v < g.num_vertices(), "part vertex out of range");
    return h_i;
  }
  std::vector<EdgeId> edges = induced_part_edges(g, part, marks);
  edges.insert(edges.end(), h_i.begin(), h_i.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

PartDilation detail::augmented_part_dilation(const Graph& g, const std::vector<VertexId>& part,
                                             VertexId leader,
                                             const std::vector<EdgeId>& edges,
                                             const QualityOptions& opt) {
  PartDilation out;
  if (edges.empty()) {
    // Singleton part with no shortcut edges: trivially covered, diameter 0.
    // A larger edgeless part is uncovered and therefore never exact.
    out.covered = part.size() == 1;
    out.exact = out.covered;
    return out;
  }
  const graph::EdgeInducedSubgraph sub(g, edges);
  const auto radius = graph::cover_radius(sub, leader, part);
  if (!radius.has_value()) return out;  // not covered, never exact
  out.covered = true;
  out.cover_radius = *radius;
  const Graph& local = sub.local_graph();
  if (local.num_vertices() <= opt.exact_diameter_max_vertices) {
    if (graph::is_connected(local)) {
      out.diameter_lb = out.diameter_ub = graph::diameter_exact(local);
      out.exact = true;
    } else {
      // Stray sampled components disconnect the augmented subgraph, so no
      // finite exact diameter exists (exact stays false, matching every
      // other non-exact path).  The exact_diameter_max_vertices budget is
      // still honoured rather than silently ignored: dilation is measured
      // as the exact diameter of the leader's component, which contains
      // all of S_i — the quantity every dilation argument is about.
      const std::uint32_t d = leader_component_diameter(sub, leader);
      out.diameter_lb = out.diameter_ub = d;
    }
  } else {
    // Too large for the exact check: the subgraph may be disconnected away
    // from S_i; measure the leader's component optimistically via sweeps.
    out.diameter_lb = graph::diameter_double_sweep(local);
    out.diameter_ub = std::max(out.diameter_lb, 2 * out.cover_radius);
  }
  return out;
}

PartDilation measure_part_dilation(const Graph& g, const std::vector<VertexId>& part,
                                   VertexId leader, const std::vector<EdgeId>& h_i,
                                   const QualityOptions& opt) {
  return detail::augmented_part_dilation(g, part, leader, augmented_edges(g, part, h_i), opt);
}

std::vector<std::uint32_t> edge_congestion(const Graph& g, const Partition& parts,
                                           const ShortcutSet& sc) {
  LCS_REQUIRE(sc.h.size() == parts.parts.size(), "shortcut/partition size mismatch");
  std::vector<std::uint32_t> load(g.num_edges(), 0);
  PartMarks marks(g.num_vertices());
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    for (const EdgeId e : augmented_edges(g, parts.parts[i], sc.h[i], marks)) ++load[e];
  }
  return load;
}

QualityReport measure_quality(const Graph& g, const Partition& parts, const ShortcutSet& sc,
                              const QualityOptions& opt) {
  LCS_REQUIRE(sc.h.size() == parts.parts.size(), "shortcut/partition size mismatch");
  QualityReport rep;
  const std::size_t np = parts.parts.size();
  rep.parts.resize(np);
  std::vector<std::uint32_t> load(g.num_edges(), 0);
  PartMarks marks(g.num_vertices());
  for (std::size_t i = 0; i < np; ++i) {
    const std::vector<EdgeId> edges = augmented_edges(g, parts.parts[i], sc.h[i], marks);
    for (const EdgeId e : edges) ++load[e];
    rep.parts[i] = detail::augmented_part_dilation(g, parts.parts[i], parts.leader(i), edges, opt);
  }
  for (const PartDilation& pd : rep.parts) {
    rep.all_covered = rep.all_covered && pd.covered;
    rep.dilation_lb = std::max(rep.dilation_lb, pd.diameter_lb);
    rep.dilation_ub = std::max(rep.dilation_ub, pd.diameter_ub);
    rep.max_cover_radius = std::max(rep.max_cover_radius, pd.cover_radius);
  }
  rep.congestion = load.empty() ? 0 : *std::max_element(load.begin(), load.end());
  return rep;
}

}  // namespace lcs::core
