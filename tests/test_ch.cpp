// Point-to-point engines (sssp/ch.hpp): bidirectional Dijkstra and
// contraction hierarchies must return the one-to-all Dijkstra distance on
// every (graph, weights, s, t), and CH preprocessing must be a
// deterministic pure function of its inputs.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "sssp/ch.hpp"
#include "sssp/sssp.hpp"

namespace lcs {
namespace {

using graph::Graph;
using graph::VertexId;

struct Instance {
  Graph g;
  graph::EdgeWeights w;
};

std::vector<Instance> test_instances() {
  std::vector<Instance> out;
  Rng rng(99);
  const auto add = [&](Graph g) {
    Rng wrng(g.num_vertices() ^ 0x5eedULL);
    graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
    out.push_back({std::move(g), std::move(w)});
  };
  add(graph::path_graph(17));
  add(graph::grid_graph(6, 7));
  add(graph::dumbbell_graph(5, 4));
  add(graph::random_tree(40, rng));
  add(graph::connected_gnm(60, 120, rng));
  add(graph::road_network(80, rng));
  add(graph::transit_network(70, 5, rng));
  // Disconnected: two components, so unreachable pairs exist.
  {
    graph::GraphBuilder b(12);
    for (VertexId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
    for (VertexId v = 6; v + 1 < 12; ++v) b.add_edge(v, v + 1);
    add(std::move(b).build());
  }
  return out;
}

TEST(ChTest, BothEnginesMatchDijkstraOnEveryFamily) {
  for (const Instance& in : test_instances()) {
    const sssp::ChIndex ch = sssp::build_ch(in.g, in.w);
    const std::uint32_t n = in.g.num_vertices();
    Rng qrng(3);
    for (int q = 0; q < 40; ++q) {
      const auto s = static_cast<VertexId>(qrng.uniform(n));
      const auto t = static_cast<VertexId>(qrng.uniform(n));
      const std::uint64_t want = sssp::dijkstra(in.g, in.w, s).dist[t];
      EXPECT_EQ(sssp::bidirectional_dijkstra(in.g, in.w, s, t).distance, want)
          << "bidi n=" << n << " s=" << s << " t=" << t;
      EXPECT_EQ(sssp::ch_query(ch, s, t).distance, want)
          << "ch n=" << n << " s=" << s << " t=" << t;
    }
  }
}

TEST(ChTest, SourceEqualsTargetIsZero) {
  const Graph g = graph::grid_graph(4, 4);
  Rng wrng(1);
  const graph::EdgeWeights w = graph::random_weights(g, 9, wrng);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  EXPECT_EQ(sssp::bidirectional_dijkstra(g, w, 5, 5).distance, 0u);
  EXPECT_EQ(sssp::ch_query(ch, 5, 5).distance, 0u);
}

TEST(ChTest, UnreachablePairsReportInfDist) {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  const Graph g = std::move(b).build();
  const graph::EdgeWeights w(g.num_edges(), 2);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  EXPECT_EQ(sssp::bidirectional_dijkstra(g, w, 0, 4).distance, sssp::kInfDist);
  EXPECT_EQ(sssp::ch_query(ch, 0, 4).distance, sssp::kInfDist);
}

TEST(ChTest, BuildIsDeterministic) {
  Rng rng(5);
  const Graph g = graph::road_network(120, rng);
  Rng wrng(8);
  const graph::EdgeWeights w = graph::random_weights(g, 12, wrng);
  const sssp::ChIndex a = sssp::build_ch(g, w);
  const sssp::ChIndex b = sssp::build_ch(g, w);
  EXPECT_EQ(a, b);  // identical vectors, not merely equivalent answers
  EXPECT_EQ(a.n, g.num_vertices());
  EXPECT_EQ(a.up_offsets.back(), a.up_arcs.size());
  // Ranks are a permutation of [0, n).
  std::vector<bool> seen(a.n, false);
  for (const std::uint32_t r : a.rank) {
    ASSERT_LT(r, a.n);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
  // Every arc points strictly upward.
  for (VertexId v = 0; v < a.n; ++v)
    for (std::uint64_t i = a.up_offsets[v]; i < a.up_offsets[v + 1]; ++i)
      EXPECT_GT(a.rank[a.up_arcs[i].to], a.rank[v]);
}

TEST(ChTest, TightWitnessLimitsPreserveExactness) {
  // Starved witness searches may only add extra shortcuts, never lose
  // correctness.
  Rng rng(11);
  const Graph g = graph::connected_gnm(50, 100, rng);
  Rng wrng(12);
  const graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  sssp::ChOptions tight;
  tight.witness_settle_limit = 1;
  tight.witness_hop_limit = 1;
  const sssp::ChIndex loose = sssp::build_ch(g, w);
  const sssp::ChIndex starved = sssp::build_ch(g, w, tight);
  EXPECT_GE(starved.num_shortcuts, loose.num_shortcuts);
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    const sssp::SsspResult ref = sssp::dijkstra(g, w, s);
    for (VertexId t = 0; t < g.num_vertices(); t += 5)
      EXPECT_EQ(sssp::ch_query(starved, s, t).distance, ref.dist[t]);
  }
}

TEST(ChTest, ChSettlesFewerNodesThanBidiOnLargeRoadNetwork) {
  Rng rng(17);
  const Graph g = graph::road_network(4000, rng);
  Rng wrng(18);
  const graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  Rng qrng(19);
  std::uint64_t bidi_settled = 0;
  std::uint64_t ch_settled = 0;
  for (int q = 0; q < 20; ++q) {
    const auto s = static_cast<VertexId>(qrng.uniform(g.num_vertices()));
    const auto t = static_cast<VertexId>(qrng.uniform(g.num_vertices()));
    const sssp::PointToPointResult a = sssp::bidirectional_dijkstra(g, w, s, t);
    const sssp::PointToPointResult b = sssp::ch_query(ch, s, t);
    EXPECT_EQ(a.distance, b.distance);
    bidi_settled += a.settled;
    ch_settled += b.settled;
  }
  EXPECT_LT(ch_settled, bidi_settled);
}

}  // namespace
}  // namespace lcs
