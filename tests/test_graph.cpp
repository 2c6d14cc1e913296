// Unit tests for the graph substrate: CSR graph, BFS family, connectivity,
// diameter, subgraphs, bridges and union-find — cross-checked against
// brute-force oracles on small instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"
#include "graph/weighted.hpp"
#include "util/rng.hpp"

namespace lcs::graph {
namespace {

Graph triangle_plus_tail() {
  // 0-1-2 triangle, 2-3-4 tail.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  return std::move(b).build();
}

// --- Graph / GraphBuilder --------------------------------------------------

TEST(Graph, BasicCounts) {
  const Graph g = triangle_plus_tail();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(4), 1u);
}

TEST(Graph, EdgesStoredWithSmallerEndpointFirst) {
  const Graph g = triangle_plus_tail();
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_LT(g.edge(e).u, g.edge(e).v);
}

TEST(Graph, NeighborsCarryEdgeIds) {
  const Graph g = triangle_plus_tail();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const HalfEdge he : g.neighbors(v)) {
      const Edge ed = g.edge(he.edge);
      EXPECT_TRUE((ed.u == v && ed.v == he.to) || (ed.v == v && ed.u == he.to));
    }
  }
}

TEST(Graph, OtherEndpoint) {
  const Graph g = triangle_plus_tail();
  const Edge ed = g.edge(0);
  EXPECT_EQ(g.other_endpoint(0, ed.u), ed.v);
  EXPECT_EQ(g.other_endpoint(0, ed.v), ed.u);
  EXPECT_THROW(g.other_endpoint(0, 4), std::invalid_argument);
}

TEST(Graph, DuplicateEdgesMerged) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, SelfLoopRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{2, 2}}), std::invalid_argument);
}

TEST(Graph, OutOfRangeRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
}

TEST(Graph, AddVerticesExtends) {
  GraphBuilder b(2);
  const VertexId first = b.add_vertices(3);
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(b.num_vertices(), 5u);
  b.add_edge(0, 4);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_vertices(), 5u);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, IsolatedVerticesExist) {
  const Graph g = Graph::from_edges(4, {{0, 1}});
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
}

// --- BFS ----------------------------------------------------------------------

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  const BfsResult r = bfs(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(r.dist[v], v);
  EXPECT_EQ(r.max_dist, 5u);
  EXPECT_EQ(r.reached, 6u);
}

TEST(Bfs, ParentsFormTree) {
  Rng rng(5);
  const Graph g = connected_gnm(50, 120, rng);
  const BfsResult r = bfs(g, 3);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == 3) {
      EXPECT_EQ(r.parent[v], kNoVertex);
      continue;
    }
    ASSERT_NE(r.parent[v], kNoVertex);
    EXPECT_EQ(r.dist[v], r.dist[r.parent[v]] + 1);
    const Edge ed = g.edge(r.parent_edge[v]);
    EXPECT_TRUE((ed.u == v && ed.v == r.parent[v]) || (ed.v == v && ed.u == r.parent[v]));
  }
}

TEST(Bfs, TruncationStopsAtCap) {
  const Graph g = path_graph(10);
  const BfsResult r = bfs_truncated(g, 0, 4);
  EXPECT_EQ(r.dist[4], 4u);
  EXPECT_EQ(r.dist[5], kUnreached);
  EXPECT_EQ(r.max_dist, 4u);
  EXPECT_EQ(r.reached, 5u);
}

TEST(Bfs, TruncationZeroReachesOnlySource) {
  const Graph g = path_graph(5);
  const BfsResult r = bfs_truncated(g, 2, 0);
  EXPECT_EQ(r.reached, 1u);
  EXPECT_EQ(r.dist[2], 0u);
  EXPECT_EQ(r.dist[1], kUnreached);
}

TEST(Bfs, MultiSourceNearest) {
  const Graph g = path_graph(9);
  const BfsResult r = bfs_multi(g, {0, 8});
  EXPECT_EQ(r.dist[4], 4u);
  EXPECT_EQ(r.dist[1], 1u);
  EXPECT_EQ(r.dist[7], 1u);
}

TEST(Bfs, DisconnectedUnreached) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.dist[2], kUnreached);
  EXPECT_FALSE(r.reached_vertex(3));
  EXPECT_EQ(r.reached, 2u);
}

TEST(Bfs, ExtractPathEndpoints) {
  const Graph g = path_graph(7);
  const BfsResult r = bfs(g, 1);
  const auto p = extract_path(r, 6);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p.front(), 1u);
  EXPECT_EQ(p.back(), 6u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    EXPECT_EQ(r.dist[p[i + 1]], r.dist[p[i]] + 1);
}

TEST(Bfs, ExtractPathUnreachedEmpty) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const BfsResult r = bfs(g, 0);
  EXPECT_TRUE(extract_path(r, 2).empty());
}

// --- components / connectivity -------------------------------------------------

TEST(Components, CountsAndLabels) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.id[0], c.id[2]);
  EXPECT_EQ(c.id[3], c.id[4]);
  EXPECT_NE(c.id[0], c.id[3]);
  EXPECT_NE(c.id[5], c.id[0]);
}

TEST(Components, ConnectedGraphSingleComponent) {
  Rng rng(9);
  const Graph g = connected_gnm(64, 100, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(connected_components(g).count, 1u);
}

// --- diameter -------------------------------------------------------------------

TEST(Diameter, ExactOnKnownShapes) {
  EXPECT_EQ(diameter_exact(path_graph(10)), 9u);
  EXPECT_EQ(diameter_exact(cycle_graph(10)), 5u);
  EXPECT_EQ(diameter_exact(complete_graph(8)), 1u);
  EXPECT_EQ(diameter_exact(star_graph(9)), 2u);
  EXPECT_EQ(diameter_exact(grid_graph(4, 6)), 8u);
}

TEST(Diameter, DoubleSweepNeverExceedsExact) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = connected_gnm(40, 60 + trial, rng);
    const std::uint32_t exact = diameter_exact(g);
    const std::uint32_t sweep = diameter_double_sweep(g);
    EXPECT_LE(sweep, exact);
    EXPECT_GE(2 * sweep, exact);  // sweep is a 2-approximation at worst
  }
}

TEST(Diameter, DoubleSweepExactOnTrees) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_tree(60, rng);
    EXPECT_EQ(diameter_double_sweep(g), diameter_exact(g));
  }
}

TEST(Diameter, BoundsShareTheFirstSweep) {
  Rng rng(45);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = trial % 2 == 0 ? connected_gnm(50, 70 + trial, rng) : random_tree(50, rng);
    const DiameterBounds b = diameter_bounds(g);
    EXPECT_EQ(b.lb, diameter_double_sweep(g));
    EXPECT_EQ(b.ub, 2 * eccentricity(g, 0));
    EXPECT_LE(b.lb, diameter_exact(g));
    EXPECT_GE(b.ub, diameter_exact(g));
  }
}

TEST(Diameter, EccentricityBounds) {
  const Graph g = path_graph(11);
  EXPECT_EQ(eccentricity(g, 5), 5u);
  EXPECT_EQ(eccentricity(g, 0), 10u);
}

TEST(Diameter, DisconnectedThrows) {
  const Graph g = Graph::from_edges(4, {{0, 1}});
  EXPECT_THROW(diameter_exact(g), std::invalid_argument);
}

// --- EdgeInducedSubgraph ---------------------------------------------------------

TEST(Subgraph, LocalTopologyMatches) {
  const Graph g = triangle_plus_tail();
  // Induce on the tail edges {2-3, 3-4}.
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge ed = g.edge(e);
    if (ed.u >= 2) ids.push_back(e);
  }
  const EdgeInducedSubgraph sub(g, ids);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);
  EXPECT_TRUE(sub.to_local(3).has_value());
  EXPECT_FALSE(sub.to_local(0).has_value());
  EXPECT_TRUE(sub.contains_all({2, 3, 4}));
  EXPECT_FALSE(sub.contains_all({1, 2}));
}

TEST(Subgraph, RoundTripVertexMapping) {
  const Graph g = triangle_plus_tail();
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  const EdgeInducedSubgraph sub(g, all);
  for (VertexId l = 0; l < sub.num_vertices(); ++l) {
    const VertexId p = sub.to_parent(l);
    ASSERT_TRUE(sub.to_local(p).has_value());
    EXPECT_EQ(*sub.to_local(p), l);
  }
}

TEST(Subgraph, DuplicateEdgeIdsTolerated) {
  const Graph g = triangle_plus_tail();
  const EdgeInducedSubgraph sub(g, {0, 0, 1, 1});
  EXPECT_EQ(sub.num_edges(), 2u);
}

TEST(Subgraph, CoverRadius) {
  const Graph g = path_graph(8);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  const EdgeInducedSubgraph sub(g, all);
  EXPECT_EQ(cover_radius(sub, 0, {0, 1, 2, 3, 4, 5, 6, 7}), 7u);
  EXPECT_EQ(cover_radius(sub, 3, {0, 7}), 4u);
}

TEST(Subgraph, CoverRadiusUnreachable) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const EdgeInducedSubgraph sub(g, {0});  // only edge 0-1
  EXPECT_FALSE(cover_radius(sub, 0, {0, 2}).has_value());
}

// --- bridges ---------------------------------------------------------------------

std::vector<EdgeId> bridges_brute_force(const Graph& g) {
  // An edge is a bridge iff removing it increases the component count.
  const std::uint32_t base = connected_components(g).count;
  std::vector<EdgeId> out;
  for (EdgeId skip = 0; skip < g.num_edges(); ++skip) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (e == skip) continue;
      edges.emplace_back(g.edge(e).u, g.edge(e).v);
    }
    const Graph h = Graph::from_edges(g.num_vertices(), std::move(edges));
    if (connected_components(h).count > base) out.push_back(skip);
  }
  return out;
}

TEST(Bridges, KnownShapes) {
  EXPECT_EQ(bridges(cycle_graph(6)).size(), 0u);
  EXPECT_EQ(bridges(path_graph(6)).size(), 5u);
  EXPECT_EQ(bridges(complete_graph(5)).size(), 0u);
  const Graph g = triangle_plus_tail();
  const auto b = bridges(g);
  EXPECT_EQ(b.size(), 2u);  // the two tail edges
}

TEST(Bridges, MatchesBruteForceOnRandomGraphs) {
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = connected_gnm(16, 18 + (trial % 8), rng);
    EXPECT_EQ(bridges(g), bridges_brute_force(g)) << "trial " << trial;
  }
}

TEST(Bridges, DisconnectedGraphsHandled) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {2, 3}, {3, 4}, {2, 4}});
  const auto b = bridges(g);
  EXPECT_EQ(b.size(), 1u);  // only 0-1
}

// --- union-find --------------------------------------------------------------------

TEST(UnionFind, BasicMergeSemantics) {
  UnionFind uf(6);
  EXPECT_EQ(uf.num_sets(), 6u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_EQ(uf.set_size(1), 2u);
}

TEST(UnionFind, TransitiveClosure) {
  UnionFind uf(10);
  uf.unite(0, 1);
  uf.unite(1, 2);
  uf.unite(5, 6);
  uf.unite(2, 5);
  EXPECT_TRUE(uf.same(0, 6));
  EXPECT_EQ(uf.set_size(0), 5u);
  EXPECT_EQ(uf.num_sets(), 6u);
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), std::invalid_argument);
}

// --- weights ------------------------------------------------------------------------

TEST(Weights, RandomWeightsInRange) {
  Rng rng(1);
  const Graph g = complete_graph(10);
  const EdgeWeights w = random_weights(g, 50, rng);
  ASSERT_EQ(w.size(), g.num_edges());
  for (const Weight x : w) {
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 50);
  }
}

TEST(Weights, DistinctWeightsArePermutation) {
  Rng rng(2);
  const Graph g = complete_graph(9);
  const EdgeWeights w = distinct_random_weights(g, rng);
  std::set<Weight> set(w.begin(), w.end());
  EXPECT_EQ(set.size(), w.size());
  EXPECT_EQ(*set.begin(), 1);
  EXPECT_EQ(*set.rbegin(), static_cast<Weight>(w.size()));
}

TEST(Weights, TotalWeight) {
  Rng rng(3);
  const Graph g = path_graph(5);
  const EdgeWeights w{2, 3, 4, 5};
  EXPECT_EQ(total_weight(w, {0, 2}), 6);
  EXPECT_EQ(total_weight(w, {}), 0);
  EXPECT_THROW(total_weight(w, {9}), std::invalid_argument);
}

}  // namespace
}  // namespace lcs::graph
