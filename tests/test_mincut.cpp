// Min-cut tests: Stoer–Wagner against brute force and against the dense
// O(n^3) Stoer–Wagner (value and side, tie-heavy inputs), Karger against
// Stoer–Wagner and against a std::stable_sort reference contraction (with
// its radix order and hoisted draws on their own), tree packing ratio bounds
// (property sweeps), cut_value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "mincut/karger.hpp"
#include "mincut/mincut.hpp"
#include "util/rng.hpp"

namespace lcs::mincut {
namespace {

Weight brute_force_mincut(const Graph& g, const EdgeWeights& w) {
  const std::uint32_t n = g.num_vertices();
  LCS_REQUIRE(n <= 16, "brute force limited");
  Weight best = std::numeric_limits<Weight>::max();
  // All proper bipartitions with vertex 0 on side A.
  for (std::uint32_t mask = 0; mask < (1u << (n - 1)); ++mask) {
    std::vector<VertexId> side{0};
    for (VertexId v = 1; v < n; ++v)
      if (mask & (1u << (v - 1))) side.push_back(v);
    if (side.size() == n) continue;
    best = std::min(best, cut_value(g, w, side));
  }
  return best;
}

/// The dense-matrix Stoer–Wagner, kept as the differential oracle of the
/// heap-ordered library kernel.  Each phase scans all supernodes for the
/// first one with the strictly largest key; the library's heap must make
/// the same choice at every step, so value and side agree exactly.
CutResult dense_stoer_wagner(const Graph& g, const EdgeWeights& w) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::vector<Weight>> a(n, std::vector<Weight>(n, 0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    a[ed.u][ed.v] += w[e];
    a[ed.v][ed.u] += w[e];
  }
  std::vector<std::vector<VertexId>> merged(n);
  for (VertexId v = 0; v < n; ++v) merged[v] = {v};
  std::vector<bool> gone(n, false);
  CutResult best;
  best.value = std::numeric_limits<Weight>::max();
  for (std::uint32_t phase = 0; phase + 1 < n; ++phase) {
    std::vector<Weight> key(n, 0);
    std::vector<bool> in_a(n, false);
    VertexId prev = graph::kNoVertex;
    VertexId last = graph::kNoVertex;
    for (std::uint32_t step = 0; step + phase < n; ++step) {
      VertexId sel = graph::kNoVertex;
      for (VertexId v = 0; v < n; ++v) {
        if (gone[v] || in_a[v]) continue;
        if (sel == graph::kNoVertex || key[v] > key[sel]) sel = v;
      }
      in_a[sel] = true;
      prev = last;
      last = sel;
      for (VertexId v = 0; v < n; ++v)
        if (!gone[v] && !in_a[v]) key[v] += a[sel][v];
    }
    if (key[last] < best.value) {
      best.value = key[last];
      best.side = merged[last];
    }
    gone[last] = true;
    merged[prev].insert(merged[prev].end(), merged[last].begin(), merged[last].end());
    for (VertexId v = 0; v < n; ++v) {
      if (gone[v] || v == prev) continue;
      a[prev][v] += a[last][v];
      a[v][prev] = a[prev][v];
    }
  }
  if (best.side.size() > n / 2) {
    std::vector<bool> in_side(n, false);
    for (const VertexId v : best.side) in_side[v] = true;
    std::vector<VertexId> other;
    for (VertexId v = 0; v < n; ++v)
      if (!in_side[v]) other.push_back(v);
    best.side = std::move(other);
  }
  std::sort(best.side.begin(), best.side.end());
  return best;
}

struct SwCase {
  std::string name;
  Graph g;
  EdgeWeights w;
};

/// Over 200 connected graphs, n = 2..300, most of them rich in ties: unit
/// and {1, 2, 3} weights, cycles, complete graphs, dumbbells, stars, paths.
std::vector<SwCase> differential_cases() {
  std::vector<SwCase> out;
  Rng rng(0xd1ff);
  auto add = [&](std::string name, Graph g, Weight max_weight) {
    EdgeWeights w = max_weight == 1 ? EdgeWeights(g.num_edges(), 1)
                                    : graph::random_weights(g, max_weight, rng);
    out.push_back({std::move(name), std::move(g), std::move(w)});
  };
  const Weight weight_ranges[] = {1, 3, 100};
  for (int i = 0; i < 150; ++i) {
    const auto n = static_cast<std::uint32_t>(2 + rng.uniform(59));
    const std::uint64_t max_m = std::uint64_t{n} * (n - 1) / 2;
    const auto m = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_m, n - 1 + rng.uniform(3 * std::uint64_t{n})));
    add("gnm" + std::to_string(i), graph::connected_gnm(n, m, rng), weight_ranges[i % 3]);
  }
  for (std::uint32_t n = 3; n <= 14; ++n) {
    add("cycle" + std::to_string(n), graph::cycle_graph(n), 1);
    add("cycle_w" + std::to_string(n), graph::cycle_graph(n), 3);
  }
  for (std::uint32_t n = 2; n <= 13; ++n) add("complete" + std::to_string(n),
                                              graph::complete_graph(n), 1);
  for (std::uint32_t clique = 3; clique <= 6; ++clique)
    for (std::uint32_t path = 1; path <= 3; ++path)
      add("dumbbell" + std::to_string(clique) + "x" + std::to_string(path),
          graph::dumbbell_graph(clique, path), 1);
  for (std::uint32_t n : {2u, 5u, 17u, 40u}) {
    add("star" + std::to_string(n), graph::star_graph(n), 1);
    add("path" + std::to_string(n), graph::path_graph(n), 1);
  }
  add("grid7x9", graph::grid_graph(7, 9), 1);
  add("grid6x6_w", graph::grid_graph(6, 6), 3);
  for (std::uint32_t n : {100u, 180u, 300u}) {
    add("gnm_unit" + std::to_string(n), graph::connected_gnm(n, 3 * n, rng), 1);
    add("gnm_w" + std::to_string(n), graph::connected_gnm(n, 3 * n, rng), 16);
  }
  return out;
}

TEST(StoerWagner, MatchesDenseOracleValueAndSide) {
  const std::vector<SwCase> cases = differential_cases();
  ASSERT_GE(cases.size(), 200u);
  for (const SwCase& c : cases) {
    const CutResult want = dense_stoer_wagner(c.g, c.w);
    const CutResult got = stoer_wagner(c.g, c.w);
    EXPECT_EQ(got.value, want.value) << c.name;
    EXPECT_EQ(got.side, want.side) << c.name;
  }
}

TEST(CutValue, HandExample) {
  // cycle_graph(4) edges after canonical sorting:
  //   e0=(0,1), e1=(0,3), e2=(1,2), e3=(2,3).
  const Graph g = graph::cycle_graph(4);
  const EdgeWeights w{1, 2, 3, 4};
  EXPECT_EQ(cut_value(g, w, {0}), w[0] + w[1]);          // edges at vertex 0
  EXPECT_EQ(cut_value(g, w, {0, 1}), w[1] + w[2]);       // (0,3) and (1,2)
  EXPECT_EQ(cut_value(g, w, {}), 0);
}

TEST(StoerWagner, MatchesBruteForceUnweighted) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::connected_gnm(10, 14 + trial % 10, rng);
    const EdgeWeights w(g.num_edges(), 1);
    EXPECT_EQ(stoer_wagner(g, w).value, brute_force_mincut(g, w)) << "trial " << trial;
  }
}

TEST(StoerWagner, MatchesBruteForceWeighted) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::connected_gnm(9, 16, rng);
    const EdgeWeights w = graph::random_weights(g, 9, rng);
    EXPECT_EQ(stoer_wagner(g, w).value, brute_force_mincut(g, w)) << "trial " << trial;
  }
}

TEST(StoerWagner, SideRealizesValue) {
  Rng rng(3);
  const Graph g = graph::connected_gnm(30, 70, rng);
  const EdgeWeights w = graph::random_weights(g, 20, rng);
  const CutResult r = stoer_wagner(g, w);
  EXPECT_EQ(cut_value(g, w, r.side), r.value);
  EXPECT_GE(r.side.size(), 1u);
  EXPECT_LE(r.side.size(), g.num_vertices() / 2);
}

TEST(StoerWagner, KnownShapes) {
  // Cycle: min cut 2 (unweighted).  Path-of-cliques: the bridge.
  const Graph cyc = graph::cycle_graph(12);
  EXPECT_EQ(stoer_wagner(cyc, EdgeWeights(12, 1)).value, 2);
  const Graph bell = graph::dumbbell_graph(5, 4);
  EXPECT_EQ(stoer_wagner(bell, EdgeWeights(bell.num_edges(), 1)).value, 1);
  const Graph k6 = graph::complete_graph(6);
  EXPECT_EQ(stoer_wagner(k6, EdgeWeights(15, 1)).value, 5);
}

TEST(StoerWagner, RejectsBadInput) {
  const Graph g = graph::Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(stoer_wagner(g, EdgeWeights(2, 1)), std::invalid_argument);
  const Graph p = graph::path_graph(3);
  EXPECT_THROW(stoer_wagner(p, EdgeWeights{1, 0}), std::invalid_argument);
}

class KargerTest : public ::testing::TestWithParam<int> {};

TEST_P(KargerTest, FindsMinCutWithEnoughTrials) {
  Rng rng(100 + GetParam());
  const Graph g = graph::connected_gnm(14, 30, rng);
  const EdgeWeights w = graph::random_weights(g, 6, rng);
  const Weight exact = stoer_wagner(g, w).value;
  Rng krng(GetParam());
  const CutResult kr = karger_mincut(g, w, 400, krng);
  EXPECT_EQ(kr.value, exact);
  EXPECT_EQ(cut_value(g, w, kr.side), kr.value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KargerTest, ::testing::Values(1, 2, 3, 4));

TEST(Karger, UpperBoundAlways) {
  Rng rng(5);
  const Graph g = graph::connected_gnm(20, 45, rng);
  const EdgeWeights w = graph::random_weights(g, 8, rng);
  const Weight exact = stoer_wagner(g, w).value;
  Rng krng(6);
  const CutResult kr = karger_mincut(g, w, 2, krng);  // too few trials
  EXPECT_GE(kr.value, exact);
}

TEST(Karger, RejectsWeightsOfTheWrongLength) {
  const Graph g = graph::cycle_graph(5);
  Rng rng(11);
  for (const std::size_t size : {0u, 4u, 6u}) {
    try {
      karger_mincut(g, EdgeWeights(size, 1), 4, rng);
      ADD_FAILURE() << "accepted " << size << " weights for 5 edges";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("weights do not match graph"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Karger, RejectsNonPositiveWeights) {
  const Graph g = graph::cycle_graph(5);
  Rng rng(12);
  for (const Weight bad : {Weight{0}, Weight{-3}}) {
    EdgeWeights w(5, 2);
    w[3] = bad;
    try {
      karger_mincut(g, w, 4, rng);
      ADD_FAILURE() << "accepted weight " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("weights must be positive"), std::string::npos)
          << e.what();
    }
  }
}

/// The reference contraction, kept as the differential oracle: per-edge
/// streams built with Rng::split, the (key, id) pairs ordered by
/// std::stable_sort, a fresh UnionFind and cut_value per trial.  The
/// library must contract in exactly this order.
CutResult stable_sort_contraction(const Graph& g, const EdgeWeights& w, const Rng& rng) {
  std::vector<std::pair<double, EdgeId>> order(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    Rng stream = rng.split(e);
    const double u = stream.uniform_real_positive();
    order[e] = {-std::log(u) / static_cast<double>(w[e]), e};
  }
  std::stable_sort(order.begin(), order.end());
  graph::UnionFind uf(g.num_vertices());
  for (const auto& [key, e] : order) {
    (void)key;
    if (uf.num_sets() == 2) break;
    uf.unite(g.edge(e).u, g.edge(e).v);
  }
  CutResult out;
  const VertexId root0 = uf.find(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (uf.find(v) == root0) out.side.push_back(v);
  out.value = cut_value(g, w, out.side);
  return out;
}

CutResult stable_sort_karger(const Graph& g, const EdgeWeights& w, std::uint32_t trials,
                             Rng& rng) {
  const Rng base(rng());
  CutResult best = stable_sort_contraction(g, w, base.split(0));
  for (std::uint32_t t = 1; t < trials; ++t) {
    CutResult cut = stable_sort_contraction(g, w, base.split(t));
    if (cut.value < best.value) best = std::move(cut);
  }
  std::sort(best.side.begin(), best.side.end());
  return best;
}

TEST(Karger, MatchesStableSortContraction) {
  std::vector<SwCase> cases = differential_cases();
  Rng rng(0x4a26);
  const auto add = [&](std::string name, Graph g, Weight max_weight) {
    EdgeWeights w = max_weight == 1 ? EdgeWeights(g.num_edges(), 1)
                                    : graph::random_weights(g, max_weight, rng);
    cases.push_back({std::move(name), std::move(g), std::move(w)});
  };
  add("mix_gnm300", graph::connected_gnm(300, 900, rng), 100);
  add("gnm_unit600", graph::connected_gnm(600, 2400, rng), 1);
  add("grid20x20", graph::grid_graph(20, 20), 1);
  add("grid12x15_w", graph::grid_graph(12, 15), 4);
  add("hard300", graph::hard_instance(300, 5).g, 1);
  add("hard400_w", graph::hard_instance(400, 4).g, 3);
  // Three components: contraction runs out of edges before two sets remain.
  add("three_parts", Graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}}), 2);
  for (const std::uint32_t trials : {1u, 2u, 16u, 48u}) {
    for (const SwCase& c : cases) {
      Rng want_rng(trials * 1000 + c.g.num_edges());
      Rng got_rng = want_rng;
      const CutResult want = stable_sort_karger(c.g, c.w, trials, want_rng);
      const CutResult got = karger_mincut(c.g, c.w, trials, got_rng);
      EXPECT_EQ(got.value, want.value) << c.name << " trials " << trials;
      EXPECT_EQ(got.side, want.side) << c.name << " trials " << trials;
      EXPECT_EQ(got_rng(), want_rng()) << c.name << ": one draw per call";
    }
  }
}

std::vector<EdgeId> stable_sort_order(const std::vector<double>& keys) {
  std::vector<std::pair<double, EdgeId>> pairs(keys.size());
  for (EdgeId i = 0; i < keys.size(); ++i) pairs[i] = {keys[i], i};
  std::stable_sort(pairs.begin(), pairs.end());
  std::vector<EdgeId> out;
  for (const auto& [key, id] : pairs) out.push_back(id);
  return out;
}

TEST(KargerKeyOrder, MatchesStableSortWithDuplicateKeys) {
  Rng rng(0x0de7);
  std::vector<std::uint64_t> items, spare;
  std::vector<EdgeId> got;
  std::vector<std::vector<double>> inputs = {{}, {0.5}, std::vector<double>(300, 1.25)};
  for (int round = 0; round < 200; ++round) {
    const auto k = static_cast<std::size_t>(rng.uniform(2000));
    // A small palette makes duplicate keys common.  A value and its
    // one-ulp neighbour (almost always) share their high 32 bits, so only
    // the fix-up pass orders them; the exponents span 80 binades, so every
    // radix byte varies.
    std::vector<double> palette;
    for (int j = 0; j < 8; ++j) {
      const double x = std::ldexp(1.0 + rng.uniform_real(), static_cast<int>(rng.uniform(80)) - 60);
      palette.push_back(x);
      palette.push_back(std::nextafter(x, 2 * x));
    }
    std::vector<double> keys(k);
    for (double& x : keys)
      x = rng.bernoulli(0.7) ? palette[rng.uniform(palette.size())]
                             : -std::log(rng.uniform_real_positive()) / double(1 + rng.uniform(9));
    inputs.push_back(std::move(keys));
  }
  for (const std::vector<double>& keys : inputs) {
    detail::key_order(keys, items, spare, got);
    ASSERT_EQ(got, stable_sort_order(keys)) << keys.size() << " keys";
  }
}

TEST(KargerDraws, HoistedDrawMatchesSplitStream) {
  // 1024 bases x 1024 ids: the hoisted draw is the first
  // uniform_real_positive() of base.split(id), bit for bit.
  Rng seeds(0x5eed);
  std::uint64_t pairs = 0;
  for (int b = 0; b < 1024; ++b) {
    const Rng base(seeds());
    const std::uint64_t key = base.split_key();
    for (std::uint64_t id = 0; id < 1024; ++id) {
      const std::uint64_t stream_id = b % 2 == 0 ? id : seeds();
      Rng stream = base.split(stream_id);
      const std::uint64_t seed = Rng::split_seed(key, hash64(stream_id));
      ASSERT_EQ(seed, stream.seed());
      const double want = stream.uniform_real_positive();
      ASSERT_EQ(Rng::first_uniform_real_positive(seed), want) << base.seed() << " " << stream_id;
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 1000000u);
}

class TreePackingTest : public ::testing::TestWithParam<int> {};

TEST_P(TreePackingTest, WithinFactorTwoOfExact) {
  Rng rng(200 + GetParam());
  const Graph g = graph::connected_gnm(40, 100 + 5 * GetParam(), rng);
  const EdgeWeights w = graph::random_weights(g, 10, rng);
  const Weight exact = stoer_wagner(g, w).value;
  const TreePackingResult tp = tree_packing_mincut(g, w);
  EXPECT_GE(tp.cut.value, exact);            // any cut is an upper bound
  EXPECT_LE(tp.cut.value, 2 * exact);        // 1-respecting guarantee
  EXPECT_EQ(cut_value(g, w, tp.cut.side), tp.cut.value);
}

INSTANTIATE_TEST_SUITE_P(Instances, TreePackingTest, ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(TreePacking, ExactOnCycle) {
  const Graph g = graph::cycle_graph(16);
  const EdgeWeights w(16, 1);
  const TreePackingResult tp = tree_packing_mincut(g, w);
  EXPECT_EQ(tp.cut.value, 2);
}

TEST(TreePacking, FindsBridgeCut) {
  const Graph g = graph::dumbbell_graph(6, 3);
  const EdgeWeights w(g.num_edges(), 1);
  const TreePackingResult tp = tree_packing_mincut(g, w);
  EXPECT_EQ(tp.cut.value, 1);  // 1-respecting always nails bridges
}

TEST(TreePacking, TreeCountDefaultsToLogN) {
  Rng rng(7);
  const Graph g = graph::connected_gnm(50, 120, rng);
  const EdgeWeights w(g.num_edges(), 1);
  const TreePackingResult tp = tree_packing_mincut(g, w);
  EXPECT_GE(tp.num_trees, 10u);  // 3 ln 50 ~ 11.7
  EXPECT_LE(tp.num_trees, 14u);
  EXPECT_LT(tp.best_tree, tp.num_trees);
}

TEST(TreePacking, MoreTreesNeverWorse) {
  Rng rng(8);
  const Graph g = graph::connected_gnm(30, 80, rng);
  const EdgeWeights w = graph::random_weights(g, 5, rng);
  const Weight few = tree_packing_mincut(g, w, 1).cut.value;
  const Weight many = tree_packing_mincut(g, w, 12).cut.value;
  EXPECT_LE(many, few);
}

class SparsifiedTest : public ::testing::TestWithParam<int> {};

TEST_P(SparsifiedTest, NearMinimumWithinEpsilon) {
  Rng rng(400 + GetParam());
  const Graph g = graph::connected_gnm(48, 180, rng);
  const EdgeWeights w = graph::random_weights(g, 6, rng);
  const Weight exact = stoer_wagner(g, w).value;
  Rng srng(GetParam());
  const SparsifiedResult r = sparsified_mincut(g, w, 0.5, srng);
  EXPECT_GE(r.cut.value, exact);  // any cut upper-bounds the minimum
  // (1+eps)-near w.h.p.; allow slack 2x for the tiny-instance regime.
  EXPECT_LE(r.cut.value, 2 * exact + 2);
  EXPECT_EQ(cut_value(g, w, r.cut.side), r.cut.value);
  EXPECT_GT(r.sample_prob, 0.0);
  EXPECT_LE(r.sample_prob, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparsifiedTest, ::testing::Values(1, 2, 3, 4));

TEST(Sparsified, FullProbabilityIsExact) {
  // Small lambda + small eps forces p = 1: the skeleton is G itself.
  Rng rng(7);
  const Graph g = graph::cycle_graph(20);
  const EdgeWeights w(20, 1);
  const SparsifiedResult r = sparsified_mincut(g, w, 0.3, rng);
  EXPECT_DOUBLE_EQ(r.sample_prob, 1.0);
  EXPECT_EQ(r.cut.value, 2);
}

TEST(Sparsified, RejectsBadEps) {
  Rng rng(8);
  const Graph g = graph::cycle_graph(6);
  const EdgeWeights w(6, 1);
  EXPECT_THROW(sparsified_mincut(g, w, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(sparsified_mincut(g, w, 1.5, rng), std::invalid_argument);
}

TEST(Sparsified, HeavyGraphActuallySparsifies) {
  // Large capacities make lambda big, so p < 1 and the skeleton is thinner.
  Rng rng(9);
  const Graph g = graph::complete_graph(24);
  const EdgeWeights w(g.num_edges(), 50);
  Rng srng(10);
  const SparsifiedResult r = sparsified_mincut(g, w, 0.5, srng);
  EXPECT_LT(r.sample_prob, 1.0);
  const Weight exact = stoer_wagner(g, w).value;
  EXPECT_GE(r.cut.value, exact);
  EXPECT_LE(double(r.cut.value), 1.6 * double(exact));
}

TEST(TreePacking, WeightedBridgeDetected) {
  // Heavy cycle with one light chord structure: min cut is the two
  // lightest cycle edges.
  graph::GraphBuilder b(6);
  for (VertexId v = 0; v < 6; ++v) b.add_edge(v, (v + 1) % 6);
  const Graph g = std::move(b).build();
  EdgeWeights w{10, 10, 1, 10, 10, 1};
  const TreePackingResult tp = tree_packing_mincut(g, w);
  EXPECT_EQ(tp.cut.value, 2);
}

}  // namespace
}  // namespace lcs::mincut
