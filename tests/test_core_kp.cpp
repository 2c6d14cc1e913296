// Tests for the Kogan–Parter sampling construction and the baselines:
// Step-1 inclusion, seed determinism, classification, coverage, congestion
// against the Chernoff-style bound, and baseline semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/coin.hpp"
#include "core/distributed.hpp"
#include "core/kp.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lcs::core {
namespace {

graph::HardInstance small_hard() { return graph::hard_instance(400, 4); }

KpOptions options_for(unsigned diameter, std::uint64_t seed = 1, double beta = 1.0) {
  KpOptions o;
  o.diameter = diameter;
  o.seed = seed;
  o.beta = beta;
  return o;
}

// --- CoinFlipper ---------------------------------------------------------------

TEST(Coin, DeterministicAndSeeded) {
  const CoinFlipper a(7, 0.5), b(7, 0.5), c(8, 0.5);
  int agree_ab = 0, agree_ac = 0;
  for (std::uint32_t e = 0; e < 256; ++e) {
    agree_ab += a.flip(e, 0, 3, 1) == b.flip(e, 0, 3, 1);
    agree_ac += a.flip(e, 0, 3, 1) == c.flip(e, 0, 3, 1);
  }
  EXPECT_EQ(agree_ab, 256);
  EXPECT_LT(agree_ac, 256);
}

TEST(Coin, ProbabilityZeroAndOne) {
  const CoinFlipper never(1, 0.0), always(1, 1.0);
  for (std::uint32_t e = 0; e < 64; ++e) {
    EXPECT_FALSE(never.flip(e, 0, 0, 0));
    EXPECT_TRUE(always.flip(e, 1, 5, 3));
  }
}

TEST(Coin, EmpiricalBias) {
  const CoinFlipper c(123, 0.25);
  int hits = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i)
    hits += c.flip(static_cast<graph::EdgeId>(i), i % 2, (i / 2) % 7, i % 5);
  EXPECT_NEAR(hits / double(trials), 0.25, 0.01);
}

TEST(Coin, IndependentAcrossRepetitions) {
  const CoinFlipper c(9, 0.5);
  int differing = 0;
  for (std::uint32_t e = 0; e < 512; ++e)
    differing += c.flip(e, 0, 0, 0) != c.flip(e, 0, 0, 1);
  // ~50% should differ for independent fair coins.
  EXPECT_GT(differing, 180);
  EXPECT_LT(differing, 330);
}

// --- classification -------------------------------------------------------------

TEST(Kp, ClassifiesLargeParts) {
  const auto hi = small_hard();
  const auto res = build_kp_shortcuts(hi.g, hi.paths, options_for(4));
  // Path length ~ sqrt(n) = 20 > k_4 = n^(1/3): every path is large.
  EXPECT_GT(hi.path_length, res.params.large_threshold);
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    EXPECT_TRUE(res.is_large[i]);
    EXPECT_NE(res.large_index[i], graph::kUnreached);
  }
  EXPECT_EQ(res.num_large, hi.paths.num_parts());
}

TEST(Kp, SmallPartsGetNoShortcut) {
  Rng rng(1);
  const Graph g = graph::connected_gnm(300, 700, rng);
  const Partition parts = graph::forest_partition(g, 3, rng);  // tiny parts
  const auto res = build_kp_shortcuts(g, parts, options_for(4));
  EXPECT_EQ(res.num_large, 0u);
  for (const auto& h : res.shortcuts.h) EXPECT_TRUE(h.empty());
}

TEST(Kp, LargeIndexIsDense) {
  const auto hi = small_hard();
  const auto res = build_kp_shortcuts(hi.g, hi.paths, options_for(4));
  std::vector<bool> seen(res.num_large, false);
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    if (!res.is_large[i]) continue;
    ASSERT_LT(res.large_index[i], res.num_large);
    EXPECT_FALSE(seen[res.large_index[i]]);
    seen[res.large_index[i]] = true;
  }
}

// --- step 1 ----------------------------------------------------------------------

TEST(Kp, Step1IncludesAllIncidentEdges) {
  const auto hi = small_hard();
  const auto res = build_kp_shortcuts(hi.g, hi.paths, options_for(4, 3, 0.2));
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    if (!res.is_large[i]) continue;
    std::vector<bool> in_part(hi.g.num_vertices(), false);
    for (const VertexId v : hi.paths.parts[i]) in_part[v] = true;
    std::vector<bool> in_h(hi.g.num_edges(), false);
    for (const EdgeId e : res.shortcuts.h[i]) in_h[e] = true;
    for (EdgeId e = 0; e < hi.g.num_edges(); ++e) {
      const graph::Edge ed = hi.g.edge(e);
      if (in_part[ed.u] || in_part[ed.v]) {
        EXPECT_TRUE(in_h[e]) << "edge " << e;
      }
    }
  }
}

TEST(Kp, DeterministicForSeed) {
  // beta well below 1 so the sampling probability stays in (0,1) and seeds
  // actually matter at this instance size.
  const auto hi = small_hard();
  const auto a = build_kp_shortcuts(hi.g, hi.paths, options_for(4, 11, 0.2));
  const auto b = build_kp_shortcuts(hi.g, hi.paths, options_for(4, 11, 0.2));
  const auto c = build_kp_shortcuts(hi.g, hi.paths, options_for(4, 12, 0.2));
  EXPECT_EQ(a.shortcuts.h, b.shortcuts.h);
  EXPECT_NE(a.shortcuts.h, c.shortcuts.h);
}

TEST(Kp, PerPartSamplerMatchesFullBuild) {
  const auto hi = small_hard();
  const KpOptions opt = options_for(4, 5, 0.3);
  const auto res = build_kp_shortcuts(hi.g, hi.paths, opt);
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    if (!res.is_large[i]) continue;
    const auto h = kp_edges_for_part(hi.g, hi.paths, i, res.params, res.large_index[i],
                                     opt.seed, res.params.repetitions);
    EXPECT_EQ(h, res.shortcuts.h[i]);
  }
}

// --- quality on families ------------------------------------------------------------

class KpFamilyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KpFamilyTest, CoversAllPartsOnHardInstance) {
  const std::uint32_t d = GetParam();
  const auto hi = graph::hard_instance(500, d);
  const auto rep = measure_kp_quality(hi.g, hi.paths, options_for(d));
  EXPECT_TRUE(rep.quality.all_covered);
  EXPECT_GT(rep.quality.congestion, 0u);
}

TEST_P(KpFamilyTest, CongestionWithinChernoffBound) {
  const std::uint32_t d = GetParam();
  const auto hi = graph::hard_instance(500, d);
  const auto rep = measure_kp_quality(hi.g, hi.paths, options_for(d));
  // Expected per-edge load <= 2 (step 1) + 2 D N p = 2 + 2 D k_D ln n beta.
  const double bound =
      2.0 + 2.0 * rep.params.repetitions *
                std::max(1.0, rep.params.sample_prob *
                                  static_cast<double>(rep.params.max_large_parts));
  // Chernoff slack factor 3 for the small scale.
  EXPECT_LE(rep.quality.congestion, 3.0 * bound + 8.0);
}

INSTANTIATE_TEST_SUITE_P(Diameters, KpFamilyTest, ::testing::Values(3u, 4u, 5u, 6u));

/// The streamed report must equal measure_quality over the materialized
/// construction field for field: every PartDilation, the maxima, congestion
/// and the total shortcut size.
void expect_streamed_equals_oracle(const graph::Graph& g, const graph::Partition& parts,
                                   const KpOptions& opt, const std::string& label) {
  const KpBuildResult full = build_kp_shortcuts(g, parts, opt);
  const QualityReport want = measure_quality(g, parts, full.shortcuts);
  std::uint64_t want_edges = 0;
  for (const auto& h : full.shortcuts.h) want_edges += h.size();
  const KpStreamReport got = measure_kp_quality(g, parts, opt);
  EXPECT_EQ(got.num_large, full.num_large) << label;
  EXPECT_EQ(got.total_shortcut_edges, want_edges) << label;
  EXPECT_EQ(got.quality.congestion, want.congestion) << label;
  EXPECT_EQ(got.quality.dilation_lb, want.dilation_lb) << label;
  EXPECT_EQ(got.quality.dilation_ub, want.dilation_ub) << label;
  EXPECT_EQ(got.quality.max_cover_radius, want.max_cover_radius) << label;
  EXPECT_EQ(got.quality.all_covered, want.all_covered) << label;
  ASSERT_EQ(got.quality.parts.size(), want.parts.size()) << label;
  for (std::size_t i = 0; i < want.parts.size(); ++i) {
    const PartDilation& a = got.quality.parts[i];
    const PartDilation& b = want.parts[i];
    EXPECT_EQ(a.covered, b.covered) << label << " part " << i;
    EXPECT_EQ(a.cover_radius, b.cover_radius) << label << " part " << i;
    EXPECT_EQ(a.diameter_lb, b.diameter_lb) << label << " part " << i;
    EXPECT_EQ(a.diameter_ub, b.diameter_ub) << label << " part " << i;
    EXPECT_EQ(a.exact, b.exact) << label << " part " << i;
  }
}

TEST(Kp, StreamedEqualsMaterialized) {
  const auto hi = small_hard();
  expect_streamed_equals_oracle(hi.g, hi.paths, options_for(4, 9, 0.5), "hard D=4");
}

// --- p = 1: every large part takes all of G ----------------------------------

/// Split every `stride`-th part into singletons (singleton parts stay
/// connected, so the partition stays valid).
graph::Partition with_singletons(graph::Partition p, std::size_t stride) {
  graph::Partition out;
  for (std::size_t i = 0; i < p.parts.size(); ++i) {
    if (i % stride != 0) {
      out.parts.push_back(std::move(p.parts[i]));
      continue;
    }
    for (const VertexId v : p.parts[i]) out.parts.push_back({v});
  }
  return out;
}

TEST(Kp, ClampedQualityEqualsMaterializedOracle) {
  // Twenty-four clamping instances: gnm at n = 300 (exact-diameter branch)
  // and n = 760 (above the 700-vertex threshold: the double-sweep branch),
  // at three betas, on ball partitions with and without singleton parts.
  ThreadOverrideGuard guard;
  int instances = 0;
  for (const std::uint32_t n : {300u, 760u}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Rng gen(0x51de + seed * 31 + n);
      const graph::Graph g = graph::connected_gnm(n, 3 * n, gen);
      Rng prng(seed);
      const graph::Partition balls = graph::ball_partition(
          g, static_cast<std::uint32_t>(std::lround(std::sqrt(double(n)))), prng);
      for (const bool singletons : {false, true}) {
        const graph::Partition parts = singletons ? with_singletons(balls, 3) : balls;
        ASSERT_EQ(graph::validate_partition(g, parts), "");
        for (const double beta : {0.75, 1.0, 1.25}) {
          KpOptions opt;
          opt.beta = beta;
          opt.seed = seed * 7 + n;
          const KpBuildResult built = build_kp_shortcuts(g, parts, opt);
          ASSERT_GE(built.params.sample_prob, 1.0) << "instance must clamp";
          ASSERT_GT(built.num_large, 0u);
          const std::string label = "n" + std::to_string(n) + " seed" + std::to_string(seed) +
                                    (singletons ? " singletons" : "") + " beta" +
                                    std::to_string(beta);
          for (const unsigned threads : {1u, 4u}) {
            set_num_threads(threads);
            expect_streamed_equals_oracle(g, parts, opt, label + " t" + std::to_string(threads));
          }
          ++instances;
        }
      }
    }
  }
  EXPECT_GE(instances, 20);
}

TEST(Kp, ClampedQualityFallsBackOnDisconnectedGraph) {
  // Two components: the large parts' augmented subgraphs are G minus its
  // isolated vertices and split in two, so the general path measures them.
  Rng gen(0xd15c);
  const graph::Graph a = graph::connected_gnm(150, 450, gen);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const graph::Edge ed = a.edge(e);
    edges.emplace_back(ed.u, ed.v);
    edges.emplace_back(ed.u + 150, ed.v + 150);
  }
  const graph::Graph g = graph::Graph::from_edges(300, std::move(edges));
  ASSERT_FALSE(graph::is_connected(g));
  Rng prng(5);
  const graph::Partition parts = graph::ball_partition(g, 17, prng);
  const KpOptions opt = options_for(7, 3);
  ASSERT_GE(build_kp_shortcuts(g, parts, opt).params.sample_prob, 1.0);
  expect_streamed_equals_oracle(g, parts, opt, "disconnected");
  // And the p < 1 general path on the same graph, for contrast.
  expect_streamed_equals_oracle(g, parts, options_for(3, 3), "disconnected p<1");
}

// --- the per-part sampler against the per-edge loop ---------------------------

/// In-test copy of the per-edge sampler: mark S_i in a fresh n-entry vector,
/// take every edge incident to it, and flip every other edge's coins with
/// CoinFlipper::flip, repetition by repetition.  The reference for the p = 1
/// early return, the caller-owned marks and the hoisted coin keys.
std::vector<EdgeId> per_edge_sampler(const graph::Graph& g, const graph::Partition& parts,
                                     std::size_t part, double p, std::uint32_t large_idx,
                                     std::uint64_t seed, unsigned repetitions) {
  const CoinFlipper coins(seed, p);
  std::vector<bool> in_part(g.num_vertices(), false);
  for (const VertexId v : parts.parts[part]) in_part[v] = true;
  std::vector<EdgeId> h;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (in_part[ed.u] || in_part[ed.v]) {
      h.push_back(e);
      continue;
    }
    bool taken = false;
    for (unsigned rep = 0; rep < repetitions && !taken; ++rep)
      taken = coins.flip(e, 0, large_idx, rep) || coins.flip(e, 1, large_idx, rep);
    if (taken) h.push_back(e);
  }
  return h;
}

struct SamplerInstance {
  std::string name;
  graph::Graph g;
  graph::Partition parts;
  unsigned diameter = 0;
};

/// gnm, grid, hard_instance and a two-component graph, each with parts
/// above k_D.
std::vector<SamplerInstance> sampler_instances() {
  std::vector<SamplerInstance> out;
  Rng gen(0x9e11);
  graph::Graph gnm = graph::connected_gnm(400, 1200, gen);
  Rng prng(2);
  graph::Partition balls = graph::ball_partition(gnm, 12, prng);
  out.push_back({"gnm", std::move(gnm), std::move(balls), 6});

  graph::Graph grid = graph::grid_graph(16, 20);
  graph::Partition grid_balls = graph::ball_partition(grid, 6, prng);
  out.push_back({"grid", std::move(grid), std::move(grid_balls), 34});

  graph::HardInstance hi = graph::hard_instance(400, 4);
  out.push_back({"hard", std::move(hi.g), std::move(hi.paths), 4});

  const graph::Graph a = graph::connected_gnm(150, 450, gen);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const graph::Edge ed = a.edge(e);
    edges.emplace_back(ed.u, ed.v);
    edges.emplace_back(ed.u + 150, ed.v + 150);
  }
  graph::Graph two = graph::Graph::from_edges(300, std::move(edges));
  graph::Partition two_balls = graph::ball_partition(two, 17, prng);
  out.push_back({"two components", std::move(two), std::move(two_balls), 7});
  return out;
}

TEST(KpSampler, AllOfEAtClampedProbability) {
  for (const SamplerInstance& inst : sampler_instances()) {
    ASSERT_EQ(graph::validate_partition(inst.g, inst.parts), "") << inst.name;
    std::vector<EdgeId> all(inst.g.num_edges());
    std::iota(all.begin(), all.end(), EdgeId{0});
    for (const unsigned reps : {1u, 4u}) {
      KpOptions opt = options_for(inst.diameter, 5);
      opt.probability_override = 1.0;
      opt.repetitions = reps;
      const KpBuildResult res = build_kp_shortcuts(inst.g, inst.parts, opt);
      ASSERT_GE(res.params.sample_prob, 1.0) << inst.name;
      ASSERT_GT(res.num_large, 0u) << inst.name;
      PartMarks marks(inst.g.num_vertices());
      for (std::size_t i = 0; i < inst.parts.num_parts(); ++i) {
        const std::string label = inst.name + " reps " + std::to_string(reps) + " part " +
                                  std::to_string(i);
        if (!res.is_large[i]) {
          EXPECT_TRUE(res.shortcuts.h[i].empty()) << label;
          continue;
        }
        const std::vector<EdgeId> want = per_edge_sampler(
            inst.g, inst.parts, i, 1.0, res.large_index[i], opt.seed, reps);
        ASSERT_EQ(want, all) << label;
        EXPECT_EQ(res.shortcuts.h[i], want) << label;
        EXPECT_EQ(kp_edges_for_part(inst.g, inst.parts, i, res.params, res.large_index[i],
                                    opt.seed, reps),
                  want)
            << label;
        EXPECT_EQ(kp_edges_for_part(inst.g, inst.parts, i, res.params, res.large_index[i],
                                    opt.seed, reps, marks),
                  want)
            << label;
      }
    }
  }
}

TEST(KpSampler, NoRepetitionsTakesStep1AloneAtClampedProbability) {
  // With zero repetitions no coin is flipped, so even p = 1 adds nothing to
  // the edges incident to S_i.
  std::size_t short_of_e = 0;
  for (const SamplerInstance& inst : sampler_instances()) {
    KpOptions opt = options_for(inst.diameter, 5);
    opt.probability_override = 1.0;
    const KpBuildResult res = build_kp_shortcuts(inst.g, inst.parts, opt);
    ASSERT_GE(res.params.sample_prob, 1.0) << inst.name;
    PartMarks marks(inst.g.num_vertices());
    for (std::size_t i = 0; i < inst.parts.num_parts(); ++i) {
      if (!res.is_large[i]) continue;
      const std::string label = inst.name + " part " + std::to_string(i);
      const std::vector<EdgeId> want =
          per_edge_sampler(inst.g, inst.parts, i, 1.0, res.large_index[i], opt.seed, 0);
      EXPECT_EQ(kp_edges_for_part(inst.g, inst.parts, i, res.params, res.large_index[i],
                                  opt.seed, 0),
                want)
          << label;
      EXPECT_EQ(kp_edges_for_part(inst.g, inst.parts, i, res.params, res.large_index[i],
                                  opt.seed, 0, marks),
                want)
          << label;
      short_of_e += want.size() < inst.g.num_edges();
    }
  }
  EXPECT_GT(short_of_e, 10u);
}

TEST(KpSampler, MatchesPerEdgeLoopBelowClamp) {
  // p < 1 runs the coins: the shared marks and the hoisted keys must give
  // the per-edge loop's sample for every part, visited in either order.
  for (const SamplerInstance& inst : sampler_instances()) {
    for (const double p : {0.05, 0.3, 0.7}) {
      for (const unsigned reps : {1u, 4u}) {
        KpOptions opt = options_for(inst.diameter, 11);
        opt.probability_override = p;
        opt.repetitions = reps;
        const KpBuildResult res = build_kp_shortcuts(inst.g, inst.parts, opt);
        ASSERT_GT(res.num_large, 0u) << inst.name;
        PartMarks marks(inst.g.num_vertices());
        for (std::size_t k = inst.parts.num_parts(); k-- > 0;) {
          if (!res.is_large[k]) continue;
          const std::string label = inst.name + " p " + std::to_string(p) + " reps " +
                                    std::to_string(reps) + " part " + std::to_string(k);
          const std::vector<EdgeId> want =
              per_edge_sampler(inst.g, inst.parts, k, p, res.large_index[k], opt.seed, reps);
          EXPECT_EQ(res.shortcuts.h[k], want) << label;
          EXPECT_EQ(kp_edges_for_part(inst.g, inst.parts, k, res.params, res.large_index[k],
                                      opt.seed, reps, marks),
                    want)
              << label;
        }
      }
    }
  }
}

TEST(KpSampler, DistributedMatchesCentralizedAtClampedProbability) {
  // Hard instances, whose paths are large by size and by leader radius
  // alike, with beta high enough that p clamps to 1.
  for (const std::uint32_t d : {4u, 6u}) {
    const graph::HardInstance hi = graph::hard_instance(400, d);
    DistributedOptions dopt;
    dopt.diameter = d;
    dopt.seed = 3;
    dopt.beta = 2.0;
    const DistributedOutcome dist = build_distributed(hi.g, hi.paths, dopt);
    const KpBuildResult central = build_kp_shortcuts(hi.g, hi.paths, options_for(d, 3, 2.0));
    ASSERT_GE(dist.params.sample_prob, 1.0) << "D " << d;
    ASSERT_GE(central.params.sample_prob, 1.0) << "D " << d;
    ASSERT_GT(central.num_large, 0u) << "D " << d;
    EXPECT_TRUE(dist.success) << "D " << d;
    EXPECT_EQ(dist.is_large, central.is_large) << "D " << d;
    EXPECT_EQ(dist.shortcuts.h, central.shortcuts.h) << "D " << d;
  }
}

TEST(Kp, HigherBetaSamplesMore) {
  const auto hi = small_hard();
  const auto lo = measure_kp_quality(hi.g, hi.paths, options_for(4, 7, 0.2));
  const auto hi_rep = measure_kp_quality(hi.g, hi.paths, options_for(4, 7, 0.8));
  EXPECT_LT(lo.total_shortcut_edges, hi_rep.total_shortcut_edges);
}

TEST(Kp, RepetitionOverrideReducesSampling) {
  const auto hi = small_hard();
  KpOptions one = options_for(4, 7, 0.5);
  one.repetitions = 1;
  KpOptions many = options_for(4, 7, 0.5);
  many.repetitions = 8;
  const auto a = measure_kp_quality(hi.g, hi.paths, one);
  const auto b = measure_kp_quality(hi.g, hi.paths, many);
  EXPECT_LT(a.total_shortcut_edges, b.total_shortcut_edges);
  EXPECT_EQ(a.params.repetitions, 1u);
  EXPECT_EQ(b.params.repetitions, 8u);
}

TEST(Kp, ProbabilityOverride) {
  const auto hi = small_hard();
  KpOptions opt = options_for(4);
  opt.probability_override = 0.0;
  const auto res = build_kp_shortcuts(hi.g, hi.paths, opt);
  // p = 0: H_i contains exactly the step-1 edges.
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    if (!res.is_large[i]) continue;
    std::vector<bool> in_part(hi.g.num_vertices(), false);
    for (const VertexId v : hi.paths.parts[i]) in_part[v] = true;
    for (const EdgeId e : res.shortcuts.h[i]) {
      const graph::Edge ed = hi.g.edge(e);
      EXPECT_TRUE(in_part[ed.u] || in_part[ed.v]);
    }
  }
}

TEST(Kp, DiameterEstimatedWhenAbsent) {
  const auto hi = small_hard();
  KpOptions opt;  // no diameter
  opt.seed = 2;
  const auto params = kp_params(hi.g, opt);
  EXPECT_EQ(params.diameter, 4u);  // double sweep is exact on this family
}

// --- baselines -----------------------------------------------------------------------

TEST(Baselines, GhLargePartsTakeWholeGraph) {
  const auto hi = small_hard();  // paths have ~sqrt(n) vertices: exactly at threshold
  const ShortcutSet sc = build_gh_shortcuts(hi.g, hi.paths);
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    if (hi.paths.parts[i].size() >= std::sqrt(double(hi.g.num_vertices())))
      EXPECT_EQ(sc.h[i].size(), hi.g.num_edges());
    else
      EXPECT_TRUE(sc.h[i].empty());
  }
}

TEST(Baselines, GhQualityBound) {
  const auto hi = graph::hard_instance(600, 4);
  const ShortcutSet sc = build_gh_shortcuts(hi.g, hi.paths);
  const QualityReport rep = measure_quality(hi.g, hi.paths, sc);
  EXPECT_TRUE(rep.all_covered);
  const double sqrt_n = std::sqrt(double(hi.g.num_vertices()));
  // congestion <= #large parts + 2 <= sqrt(n) + 2; dilation <= max(D, part size).
  EXPECT_LE(rep.congestion, sqrt_n + 2.0);
  EXPECT_LE(rep.dilation_ub,
            std::max<std::uint32_t>(hi.diameter, hi.path_length) + 2);
}

TEST(Baselines, TrivialHasUnitCongestion) {
  const auto hi = small_hard();
  const ShortcutSet sc = build_trivial_shortcuts(hi.paths);
  const QualityReport rep = measure_quality(hi.g, hi.paths, sc);
  EXPECT_TRUE(rep.all_covered);  // parts are connected paths
  EXPECT_EQ(rep.congestion, 1u);
  EXPECT_EQ(rep.dilation_ub, hi.path_length - 1);  // the bare path diameter
}

TEST(Baselines, KkoiD3IsSingleRepetition) {
  const auto hi = graph::hard_instance(500, 3);
  const auto res = build_kkoi_d3(hi.g, hi.paths, 4);
  EXPECT_EQ(res.params.repetitions, 1u);
  EXPECT_EQ(res.params.diameter, 3u);
}

// --- odd-diameter construction ----------------------------------------------------------

TEST(OddD, RequiresOddDiameter) {
  const auto hi = graph::hard_instance(500, 4);
  EXPECT_THROW(build_kp_shortcuts_odd(hi.g, hi.paths, options_for(4)),
               std::invalid_argument);
}

TEST(OddD, Step1AndSubsetOfEdges) {
  const auto hi = graph::hard_instance(500, 5);
  const auto res = build_kp_shortcuts_odd(hi.g, hi.paths, options_for(5, 3));
  for (std::size_t i = 0; i < hi.paths.num_parts(); ++i) {
    if (!res.is_large[i]) continue;
    std::vector<bool> in_part(hi.g.num_vertices(), false);
    for (const VertexId v : hi.paths.parts[i]) in_part[v] = true;
    std::vector<bool> in_h(hi.g.num_edges(), false);
    for (const EdgeId e : res.shortcuts.h[i]) {
      EXPECT_FALSE(in_h[e]);  // no duplicates
      in_h[e] = true;
    }
    for (EdgeId e = 0; e < hi.g.num_edges(); ++e) {
      const graph::Edge ed = hi.g.edge(e);
      if (in_part[ed.u] || in_part[ed.v]) {
        EXPECT_TRUE(in_h[e]);
      }
    }
  }
}

TEST(OddD, CoversParts) {
  const auto hi = graph::hard_instance(500, 5);
  const auto res = build_kp_shortcuts_odd(hi.g, hi.paths, options_for(5));
  const QualityReport rep = measure_quality(hi.g, hi.paths, res.shortcuts);
  EXPECT_TRUE(rep.all_covered);
}

TEST(OddD, SamplesFewerThanDirectAtSameProb) {
  // Both-halves-must-land thins the per-repetition rate relative to the
  // one-coin-per-endpoint direct sampler at identical p.
  const auto hi = graph::hard_instance(700, 5);
  const KpOptions opt = options_for(5, 21, 0.6);
  const auto direct = build_kp_shortcuts(hi.g, hi.paths, opt);
  const auto odd = build_kp_shortcuts_odd(hi.g, hi.paths, opt);
  std::uint64_t direct_total = 0, odd_total = 0;
  for (const auto& h : direct.shortcuts.h) direct_total += h.size();
  for (const auto& h : odd.shortcuts.h) odd_total += h.size();
  EXPECT_LE(odd_total, direct_total);
}

}  // namespace
}  // namespace lcs::core
