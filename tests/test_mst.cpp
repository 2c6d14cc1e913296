// MST tests: Kruskal against brute force, Boruvka-over-shortcuts against
// Kruskal across schemes, families and seeds, and round accounting sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "mst/mst.hpp"
#include "util/rng.hpp"

namespace lcs::mst {
namespace {

Weight brute_force_mst_weight(const Graph& g, const EdgeWeights& w) {
  // Enumerate all spanning trees? Too many; instead enumerate subsets of
  // size n-1 for tiny graphs.
  const std::uint32_t n = g.num_vertices();
  const std::uint32_t m = g.num_edges();
  LCS_REQUIRE(m <= 16, "brute force limited");
  Weight best = std::numeric_limits<Weight>::max();
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) != n - 1) continue;
    graph::UnionFind uf(n);
    Weight total = 0;
    for (EdgeId e = 0; e < m; ++e) {
      if (!(mask & (1u << e))) continue;
      const graph::Edge ed = g.edge(e);
      uf.unite(ed.u, ed.v);
      total += w[e];
    }
    if (uf.num_sets() == 1) best = std::min(best, total);
  }
  return best;
}

TEST(Kruskal, MatchesBruteForceOnTinyGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::connected_gnm(7, 7 + trial % 9, rng);
    const EdgeWeights w = graph::random_weights(g, 12, rng);
    EXPECT_EQ(kruskal(g, w).weight, brute_force_mst_weight(g, w)) << "trial " << trial;
  }
}

TEST(Kruskal, TreeInputReturnsAllEdges) {
  Rng rng(2);
  const Graph g = graph::random_tree(30, rng);
  const EdgeWeights w = graph::random_weights(g, 10, rng);
  const MstResult r = kruskal(g, w);
  EXPECT_EQ(r.edges.size(), 29u);
  EXPECT_EQ(r.weight, graph::total_weight(w, r.edges));
}

TEST(Kruskal, SpanningForestOnDisconnected) {
  const Graph g = graph::Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const EdgeWeights w{5, 3, 2};
  const MstResult r = kruskal(g, w);
  EXPECT_EQ(r.edges.size(), 3u);
  EXPECT_EQ(r.weight, 10);
}

TEST(Kruskal, ResultIsSpanningAcyclic) {
  Rng rng(3);
  const Graph g = graph::connected_gnm(80, 200, rng);
  const EdgeWeights w = graph::distinct_random_weights(g, rng);
  const MstResult r = kruskal(g, w);
  EXPECT_EQ(r.edges.size(), 79u);
  graph::UnionFind uf(80);
  for (const EdgeId e : r.edges) EXPECT_TRUE(uf.unite(g.edge(e).u, g.edge(e).v));
  EXPECT_EQ(uf.num_sets(), 1u);
}

// --- Boruvka over shortcuts -------------------------------------------------------

struct SchemeCase {
  ShortcutScheme scheme;
  const char* name;
};

class BoruvkaSchemeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoruvkaSchemeTest, WeightEqualsKruskal) {
  const auto [scheme_idx, seed] = GetParam();
  const ShortcutScheme scheme = static_cast<ShortcutScheme>(scheme_idx);
  Rng rng(100 + seed);
  const Graph g = graph::connected_gnm(90, 220, rng);
  const EdgeWeights w = graph::distinct_random_weights(g, rng);
  BoruvkaOptions opt;
  opt.scheme = scheme;
  opt.seed = seed;
  const BoruvkaResult res = boruvka_mst(g, w, opt);
  const MstResult want = kruskal(g, w);
  EXPECT_EQ(res.mst.weight, want.weight);
  // With distinct weights the MST is unique: edge sets must match exactly.
  EXPECT_EQ(res.mst.edges, want.edges);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, BoruvkaSchemeTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1, 2, 3)));

TEST(Boruvka, HardInstanceAllSchemesAgree) {
  const auto hi = graph::hard_instance(350, 4);
  Rng rng(7);
  const EdgeWeights w = graph::distinct_random_weights(hi.g, rng);
  const MstResult want = kruskal(hi.g, w);
  for (const ShortcutScheme s : {ShortcutScheme::kKoganParter,
                                 ShortcutScheme::kGhaffariHaeupler,
                                 ShortcutScheme::kNone}) {
    BoruvkaOptions opt;
    opt.scheme = s;
    opt.diameter = 4;
    const BoruvkaResult res = boruvka_mst(hi.g, w, opt);
    EXPECT_EQ(res.mst.weight, want.weight);
  }
}

TEST(Boruvka, PhaseCountLogarithmic) {
  Rng rng(8);
  const Graph g = graph::connected_gnm(128, 400, rng);
  const EdgeWeights w = graph::distinct_random_weights(g, rng);
  BoruvkaOptions opt;
  opt.scheme = ShortcutScheme::kNone;
  const BoruvkaResult res = boruvka_mst(g, w, opt);
  EXPECT_LE(res.phases, 8u);  // ceil(log2(128)) = 7 plus slack
  EXPECT_GE(res.phases, 1u);
}

TEST(Boruvka, PhaseStatsAccounting) {
  Rng rng(9);
  const Graph g = graph::connected_gnm(60, 150, rng);
  const EdgeWeights w = graph::distinct_random_weights(g, rng);
  BoruvkaOptions opt;
  opt.scheme = ShortcutScheme::kKoganParter;
  opt.diameter = 4;
  const BoruvkaResult res = boruvka_mst(g, w, opt);
  ASSERT_EQ(res.phase_stats.size(), res.phases);
  std::uint64_t sum = 0;
  for (const PhaseStats& ps : res.phase_stats) {
    EXPECT_GT(ps.fragments, 0u);
    EXPECT_EQ(ps.rounds_charged,
              ps.bfs_rounds + ps.up_rounds + ps.down_rounds + 1);
    sum += ps.rounds_charged;
  }
  EXPECT_EQ(res.aggregation_rounds, sum);
  EXPECT_EQ(res.total_rounds(), res.aggregation_rounds + res.construction_rounds);
  // Fragment counts strictly decrease.
  for (std::size_t i = 1; i < res.phase_stats.size(); ++i)
    EXPECT_LT(res.phase_stats[i].fragments, res.phase_stats[i - 1].fragments);
}

TEST(Boruvka, NoConstructionChargeForTrivialScheme) {
  Rng rng(10);
  const Graph g = graph::connected_gnm(50, 120, rng);
  const EdgeWeights w = graph::distinct_random_weights(g, rng);
  BoruvkaOptions opt;
  opt.scheme = ShortcutScheme::kNone;
  const BoruvkaResult res = boruvka_mst(g, w, opt);
  EXPECT_EQ(res.construction_rounds, 0u);
}

TEST(Boruvka, DisconnectedRejected) {
  const Graph g = graph::Graph::from_edges(4, {{0, 1}, {2, 3}});
  const EdgeWeights w{1, 2};
  EXPECT_THROW(boruvka_mst(g, w, {}), std::invalid_argument);
}

TEST(Boruvka, DuplicateWeightsStillValidTree) {
  Rng rng(11);
  const Graph g = graph::connected_gnm(70, 180, rng);
  EdgeWeights w(g.num_edges(), 5);  // all equal: tie-break by edge id
  const BoruvkaResult res = boruvka_mst(g, w, {});
  EXPECT_EQ(res.mst.edges.size(), 69u);
  EXPECT_EQ(res.mst.weight, 69 * 5);
  graph::UnionFind uf(70);
  for (const EdgeId e : res.mst.edges) EXPECT_TRUE(uf.unite(g.edge(e).u, g.edge(e).v));
}

TEST(Boruvka, CompleteGraphFastPhases) {
  const Graph g = graph::complete_graph(32);
  Rng rng(12);
  const EdgeWeights w = graph::distinct_random_weights(g, rng);
  BoruvkaOptions opt;
  opt.scheme = ShortcutScheme::kNone;
  const BoruvkaResult res = boruvka_mst(g, w, opt);
  EXPECT_EQ(res.mst.weight, kruskal(g, w).weight);
  EXPECT_LE(res.phases, 5u);
}

/// Every field of a result, phase by phase.
void expect_same_result(const BoruvkaResult& got, const BoruvkaResult& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.mst.edges, want.mst.edges) << ctx;
  EXPECT_EQ(got.mst.weight, want.mst.weight) << ctx;
  EXPECT_EQ(got.phases, want.phases) << ctx;
  EXPECT_EQ(got.aggregation_rounds, want.aggregation_rounds) << ctx;
  EXPECT_EQ(got.construction_rounds, want.construction_rounds) << ctx;
  EXPECT_EQ(got.messages, want.messages) << ctx;
  ASSERT_EQ(got.phase_stats.size(), want.phase_stats.size()) << ctx;
  for (std::size_t p = 0; p < got.phase_stats.size(); ++p) {
    const PhaseStats& a = got.phase_stats[p];
    const PhaseStats& b = want.phase_stats[p];
    EXPECT_EQ(a.fragments, b.fragments) << ctx << " phase " << p;
    EXPECT_EQ(a.bfs_rounds, b.bfs_rounds) << ctx << " phase " << p;
    EXPECT_EQ(a.up_rounds, b.up_rounds) << ctx << " phase " << p;
    EXPECT_EQ(a.down_rounds, b.down_rounds) << ctx << " phase " << p;
    EXPECT_EQ(a.messages, b.messages) << ctx << " phase " << p;
  }
}

TEST(Boruvka, ReusedScratchMatchesFreshCalls) {
  // Graphs where KP's p clamps to 1 (all-of-E instances) and where it
  // samples; one scratch per graph serves every scheme and seed in turn.
  Rng rng(0x5c4a7c);
  const Graph graphs[] = {graph::connected_gnm(300, 900, rng),
                          graph::connected_gnm(400, 2400, rng), graph::grid_graph(9, 11)};
  const ShortcutScheme schemes[] = {ShortcutScheme::kKoganParter,
                                    ShortcutScheme::kGhaffariHaeupler, ShortcutScheme::kNone};
  for (const Graph& g : graphs) {
    const EdgeWeights w = graph::random_weights(g, 16, rng);
    BoruvkaScratch scratch(g);
    for (const ShortcutScheme scheme : schemes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        BoruvkaOptions opt;
        opt.scheme = scheme;
        opt.seed = seed;
        const std::string ctx = "n=" + std::to_string(g.num_vertices()) + " scheme " +
                                std::to_string(static_cast<int>(scheme)) + " seed " +
                                std::to_string(seed);
        expect_same_result(boruvka_mst(g, w, opt, scratch), boruvka_mst(g, w, opt), ctx);
      }
    }
  }
}

TEST(Boruvka, ScratchSurvivesAnAbortedCall) {
  // One phase cannot merge 120 vertices into one fragment, so the call
  // throws after its runs; the scratch must serve the next call as new.
  Rng rng(0xab0);
  const Graph g = graph::connected_gnm(120, 360, rng);
  const EdgeWeights w = graph::random_weights(g, 16, rng);
  BoruvkaScratch scratch(g);
  BoruvkaOptions cut_short;
  cut_short.max_phases = 1;
  EXPECT_THROW(boruvka_mst(g, w, cut_short, scratch), std::logic_error);
  expect_same_result(boruvka_mst(g, w, {}, scratch), boruvka_mst(g, w, {}), "after abort");
}

TEST(Boruvka, ScratchOfAnotherGraphRejected) {
  Rng rng(0xab1);
  const Graph g = graph::connected_gnm(40, 90, rng);
  const Graph other = graph::connected_gnm(40, 90, rng);
  const EdgeWeights w = graph::random_weights(g, 16, rng);
  BoruvkaScratch scratch(other);
  try {
    boruvka_mst(g, w, {}, scratch);
    FAIL() << "a scratch of another graph was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("the scratch was built for another graph"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace lcs::mst
