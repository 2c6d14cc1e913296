// Tests for the shortcut data type and the quality verifier, against
// hand-computed instances and brute-force recomputation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/shortcut.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace lcs::core {
namespace {

TEST(InducedEdges, PathPart) {
  const Graph g = graph::path_graph(8);
  // Part {2,3,4}: edges 2-3 (id 2) and 3-4 (id 3).
  const auto edges = induced_part_edges(g, {2, 3, 4});
  EXPECT_EQ(edges, (std::vector<EdgeId>{2, 3}));
}

TEST(InducedEdges, DisconnectedVerticesNoEdges) {
  const Graph g = graph::path_graph(8);
  EXPECT_TRUE(induced_part_edges(g, {0, 4}).empty());
}

TEST(InducedEdges, CliquePart) {
  const Graph g = graph::complete_graph(6);
  const auto edges = induced_part_edges(g, {0, 1, 2});
  EXPECT_EQ(edges.size(), 3u);
}

TEST(AugmentedEdges, UnionWithoutDuplicates) {
  const Graph g = graph::path_graph(6);
  // Part {1,2} induces edge 1; H adds edges {1, 3}.
  const auto edges = augmented_edges(g, {1, 2}, {1, 3});
  EXPECT_EQ(edges, (std::vector<EdgeId>{1, 3}));
}

TEST(AllEdges, ExactlyZeroToMMinusOne) {
  const Graph g = graph::path_graph(6);  // m = 5
  EXPECT_TRUE(is_all_edges(g, {0, 1, 2, 3, 4}));
}

TEST(AllEdges, NearMissesAreNotAllOfE) {
  const Graph g = graph::path_graph(6);  // m = 5
  EXPECT_FALSE(is_all_edges(g, {0, 1, 1, 3, 4}));        // size m, one duplicate
  EXPECT_FALSE(is_all_edges(g, {0, 2, 1, 3, 4}));        // size m, not sorted
  EXPECT_FALSE(is_all_edges(g, {1, 2, 3, 4, 5}));        // ids 1..m
  EXPECT_FALSE(is_all_edges(g, {0, 1, 2, 3}));           // size m - 1
  EXPECT_FALSE(is_all_edges(g, {0, 1, 2, 3, 4, 4}));     // size m + 1
  EXPECT_FALSE(is_all_edges(graph::path_graph(1), {}));  // m = 0, empty H_i
}

TEST(AugmentedEdges, AllOfEIsTheUnion) {
  const Graph g = graph::cycle_graph(5);
  EXPECT_EQ(augmented_edges(g, {1, 2}, {0, 1, 2, 3, 4}), (std::vector<EdgeId>{0, 1, 2, 3, 4}));
  // Unsorted all-of-E ids take the general path and still give the union.
  EXPECT_EQ(augmented_edges(g, {1, 2}, {4, 3, 2, 1, 0}), (std::vector<EdgeId>{0, 1, 2, 3, 4}));
}

TEST(PartDilation, PathWithoutShortcut) {
  const Graph g = graph::path_graph(10);
  std::vector<VertexId> part(10);
  for (VertexId v = 0; v < 10; ++v) part[v] = v;
  const PartDilation pd = measure_part_dilation(g, part, 9, {});
  EXPECT_TRUE(pd.covered);
  EXPECT_TRUE(pd.exact);
  EXPECT_EQ(pd.diameter_ub, 9u);
  EXPECT_EQ(pd.cover_radius, 9u);  // leader 9 reaches vertex 0 in 9 hops
}

TEST(PartDilation, ShortcutShrinksDiameter) {
  // Path 0..9 plus a detour vertex 10 joined to both ends.  The part is the
  // path only; the detour edges are *outside* G[S] and act as the shortcut.
  graph::GraphBuilder b(11);
  for (VertexId v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  b.add_edge(0, 10);
  b.add_edge(9, 10);
  const Graph g = std::move(b).build();
  std::vector<VertexId> part(10);
  for (VertexId v = 0; v < 10; ++v) part[v] = v;
  std::vector<EdgeId> detour;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (g.edge(e).v == 10) detour.push_back(e);
  ASSERT_EQ(detour.size(), 2u);

  const PartDilation without = measure_part_dilation(g, part, 9, {});
  const PartDilation with_detour = measure_part_dilation(g, part, 9, detour);
  EXPECT_EQ(without.diameter_ub, 9u);
  EXPECT_EQ(with_detour.diameter_ub, 5u);  // cycle of 11 -> diameter 5
}

TEST(PartDilation, SingletonPart) {
  const Graph g = graph::path_graph(4);
  const PartDilation pd = measure_part_dilation(g, {2}, 2, {});
  EXPECT_TRUE(pd.covered);
  EXPECT_LE(pd.diameter_ub, 2u);
  EXPECT_EQ(pd.cover_radius, 0u);
}

TEST(PartDilation, SingletonNoEdges) {
  const Graph g = graph::Graph::from_edges(3, {{0, 1}});
  const PartDilation pd = measure_part_dilation(g, {2}, 2, {});
  EXPECT_TRUE(pd.covered);
  EXPECT_EQ(pd.diameter_ub, 0u);
}

TEST(PartDilation, UncoveredWhenNoConnection) {
  const Graph g = graph::Graph::from_edges(4, {{0, 1}, {2, 3}});
  // "Part" {0, 3} has no connecting structure at all in the augmented
  // subgraph (H empty, no induced edges between them).
  const PartDilation pd = measure_part_dilation(g, {0, 3}, 3, {});
  EXPECT_FALSE(pd.covered);
  EXPECT_FALSE(pd.exact);  // an uncovered part never claims an exact diameter
}

TEST(PartDilation, UncoveredEdgelessPartNotExact) {
  // A multi-vertex part with an empty augmented subgraph is uncovered; it
  // must not report exact=true (regression: the early branch used to).
  const Graph g = graph::Graph::from_edges(5, {{0, 1}, {2, 3}});
  const PartDilation pd = measure_part_dilation(g, {0, 4}, 4, {});
  EXPECT_FALSE(pd.covered);
  EXPECT_FALSE(pd.exact);
}

TEST(PartDilation, DisconnectedAugmentedSubgraphNotSilentlyApproximated) {
  // Regression: part {2,3,4,5} is a path segment, and H adds a stray
  // component {8,9}.  The subgraph is small enough for the exact-diameter
  // budget, which used to be silently ignored because the whole augmented
  // subgraph is disconnected.  Now the budget is honoured on the leader's
  // component (exact diameter, lb == ub) while exact=false records that no
  // finite diameter of the full augmented subgraph exists.
  graph::GraphBuilder b(10);
  for (VertexId v = 0; v + 1 < 8; ++v) b.add_edge(v, v + 1);
  b.add_edge(8, 9);
  const Graph g = std::move(b).build();
  const std::vector<EdgeId> stray = {g.num_edges() - 1};  // edge 8-9

  QualityOptions within_budget;  // default threshold far above 6 vertices
  const PartDilation pd = measure_part_dilation(g, {2, 3, 4, 5}, 5, stray, within_budget);
  EXPECT_TRUE(pd.covered);  // S is connected through its leader
  EXPECT_FALSE(pd.exact);   // the full augmented subgraph is not
  // Leader component is exactly the induced path 2-3-4-5: exact diameter 3,
  // reported as a tight bracket.  (The old sweep bracket reported ub = 6.)
  EXPECT_EQ(pd.diameter_lb, 3u);
  EXPECT_EQ(pd.diameter_ub, 3u);
  EXPECT_EQ(pd.cover_radius, 3u);

  // Beyond the exact budget the optimistic sweep bracket is kept
  // (documented behaviour for subgraphs too large to check exactly).
  QualityOptions beyond_budget;
  beyond_budget.exact_diameter_max_vertices = 1;
  const PartDilation approx = measure_part_dilation(g, {2, 3, 4, 5}, 5, stray, beyond_budget);
  EXPECT_TRUE(approx.covered);
  EXPECT_FALSE(approx.exact);
  EXPECT_LE(approx.diameter_lb, approx.diameter_ub);
}

// --- congestion ---------------------------------------------------------------

TEST(Congestion, DefinitionOnHandExample) {
  // Path of 6: parts {0,1} and {4,5}; H_0 = {e2}, H_1 = {e2}.
  const Graph g = graph::path_graph(6);
  Partition parts;
  parts.parts = {{0, 1}, {4, 5}};
  ShortcutSet sc;
  sc.h = {{2}, {2}};
  const auto load = edge_congestion(g, parts, sc);
  EXPECT_EQ(load[0], 1u);  // induced in part 0 only
  EXPECT_EQ(load[2], 2u);  // in both H_0 and H_1
  EXPECT_EQ(load[4], 1u);  // induced in part 1 only
  EXPECT_EQ(load[1], 0u);
  EXPECT_EQ(load[3], 0u);
}

TEST(Congestion, InducedAndShortcutNotDoubleCounted) {
  const Graph g = graph::path_graph(4);
  Partition parts;
  parts.parts = {{0, 1, 2}};
  ShortcutSet sc;
  sc.h = {{0, 1}};  // already induced edges of the part
  const auto load = edge_congestion(g, parts, sc);
  EXPECT_EQ(load[0], 1u);
  EXPECT_EQ(load[1], 1u);
}

TEST(Quality, ReportMatchesDefinitionSmall) {
  const Graph g = graph::cycle_graph(8);
  Partition parts;
  parts.parts = {{0, 1, 2}, {4, 5, 6}};
  ShortcutSet sc;
  sc.h.resize(2);
  const QualityReport rep = measure_quality(g, parts, sc);
  EXPECT_TRUE(rep.all_covered);
  EXPECT_EQ(rep.congestion, 1u);
  EXPECT_EQ(rep.dilation_ub, 2u);
  EXPECT_EQ(rep.parts.size(), 2u);
}

TEST(Quality, MismatchedSizesRejected) {
  const Graph g = graph::path_graph(4);
  Partition parts;
  parts.parts = {{0, 1}};
  ShortcutSet sc;  // empty
  EXPECT_THROW(measure_quality(g, parts, sc), std::invalid_argument);
}

TEST(Quality, WholeGraphShortcutGivesGraphDiameter) {
  Rng rng(50);
  const Graph g = graph::connected_gnm(40, 90, rng);
  const Partition parts = graph::ball_partition(g, 3, rng);
  ShortcutSet sc;
  sc.h.resize(parts.num_parts());
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  for (auto& h : sc.h) h = all;
  const QualityReport rep = measure_quality(g, parts, sc);
  EXPECT_TRUE(rep.all_covered);
  EXPECT_EQ(rep.congestion, parts.num_parts());
  EXPECT_EQ(rep.dilation_ub, graph::diameter_exact(g));
}

TEST(Quality, QualityIsCongestionPlusDilation) {
  QualityReport rep;
  rep.congestion = 7;
  rep.dilation_ub = 5;
  EXPECT_EQ(rep.quality(), 12u);
}

TEST(Quality, LargeSubgraphUsesBracket) {
  // Force the non-exact path by setting the exact threshold to 1.
  Rng rng(51);
  const Graph g = graph::connected_gnm(60, 130, rng);
  const Partition parts = graph::ball_partition(g, 2, rng);
  ShortcutSet sc;
  sc.h.resize(parts.num_parts());
  QualityOptions opt;
  opt.exact_diameter_max_vertices = 1;
  const QualityReport rep = measure_quality(g, parts, sc, opt);
  EXPECT_TRUE(rep.all_covered);
  EXPECT_LE(rep.dilation_lb, rep.dilation_ub);
  for (const auto& pd : rep.parts) {
    EXPECT_FALSE(pd.exact);
    EXPECT_LE(pd.diameter_lb, pd.diameter_ub);
    EXPECT_LE(pd.cover_radius, pd.diameter_ub);
  }
}

TEST(Quality, BracketContainsExact) {
  Rng rng(52);
  const Graph g = graph::connected_gnm(50, 110, rng);
  const Partition parts = graph::ball_partition(g, 3, rng);
  ShortcutSet sc;
  sc.h.resize(parts.num_parts());
  QualityOptions approx;
  approx.exact_diameter_max_vertices = 1;
  QualityOptions exact;
  exact.exact_diameter_max_vertices = 100000;
  const QualityReport a = measure_quality(g, parts, sc, approx);
  const QualityReport b = measure_quality(g, parts, sc, exact);
  EXPECT_LE(a.dilation_lb, b.dilation_ub);
  EXPECT_GE(a.dilation_ub, b.dilation_ub);
  EXPECT_EQ(a.congestion, b.congestion);
}

}  // namespace
}  // namespace lcs::core
