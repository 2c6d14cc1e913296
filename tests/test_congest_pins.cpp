// Literal pins for the scheduled CONGEST programs and the Borůvka MST that
// runs on them.  Every expected value below was recorded from the
// deque-queued, hash-indexed programs; a faster queue or simulator layout
// must reproduce each round count, message count, edge load and parent
// hash byte for byte.  The crowded capacity-2 tree pipeline was recorded
// later, from the flat programs whose tokens always queued before a drain
// sent them.  A mismatch prints the observed value in the table's own
// literal syntax.
//
// Each pin runs at 1 and at 4 threads.  The simulator runs on its caller's
// thread either way, so the thread count reaches only the layers around it
// (the Borůvka MWOE scan, the shortcut construction); every literal must
// hold at both.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "congest/multibf.hpp"
#include "congest/multibfs.hpp"
#include "congest/multitree.hpp"
#include "congest/programs.hpp"
#include "congest/simulator.hpp"
#include "core/kp.hpp"
#include "core/shortcut.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/weighted.hpp"
#include "mst/mst.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lcs {
namespace {

using graph::Graph;
using graph::VertexId;

constexpr unsigned kPinThreads[] = {1, 4};

/// Restores the default thread count when a test leaves.
struct ThreadReset {
  ~ThreadReset() { set_num_threads(0); }
};

struct Family {
  std::string name;
  Graph g;
};

std::vector<Family> families() {
  std::vector<Family> out;
  Rng rng(0x5eed0017);
  out.push_back({"gnm140", graph::connected_gnm(140, 320, rng)});
  out.push_back({"grid12x15", graph::grid_graph(12, 15)});
  out.push_back({"hard300", graph::hard_instance(300, 5).g});
  return out;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t x) { return hash64(h ^ x); }

/// (rounds, messages, max_edge_load, content hash) of one simulated run.
struct RunPin {
  std::uint32_t rounds;
  std::uint64_t messages;
  std::uint64_t max_edge_load;
  std::uint64_t hash;
  bool operator==(const RunPin&) const = default;
};

std::string literal(const RunPin& p) {
  std::ostringstream os;
  os << "{" << p.rounds << ", " << p.messages << ", " << p.max_edge_load << ", 0x" << std::hex
     << p.hash << "ULL}";
  return os.str();
}

RunPin pin_of(const congest::RunStats& st, std::uint64_t hash) {
  EXPECT_TRUE(st.completed);
  return {st.rounds, st.messages, st.max_edge_load, hash};
}

/// Ball-partition instances with staggered starts, plus one all-of-G
/// instance: both the local-CSR and the whole-graph shape.
std::vector<congest::BfsInstanceSpec> bfs_specs(const Graph& g) {
  Rng rng(0xbf5);
  const graph::Partition parts = graph::ball_partition(g, 7, rng);
  std::vector<congest::BfsInstanceSpec> specs;
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    congest::BfsInstanceSpec spec;
    spec.root = parts.leader(i);
    spec.edges = core::induced_part_edges(g, parts.parts[i]);
    spec.start_round = static_cast<std::uint32_t>(i % 3);
    specs.push_back(std::move(spec));
  }
  congest::BfsInstanceSpec all;
  all.root = g.num_vertices() / 2;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all.edges.push_back(e);
  all.start_round = 1;
  specs.push_back(std::move(all));
  return specs;
}

struct TreePins {
  RunPin bfs;
  RunPin up;
  RunPin down;
};

/// Multi-BFS, then a min-convergecast and a broadcast over its trees.
TreePins run_tree_pipeline(const Graph& g) {
  congest::MultiBfsProgram bfs(g, bfs_specs(g));
  congest::Simulator bfs_sim(g, 1);
  const congest::RunStats bfs_st = bfs_sim.run(bfs, 8 * g.num_vertices() + 64);
  std::uint64_t parents = 0;
  std::vector<congest::TreeInstanceSpec> tspecs;
  for (std::size_t i = 0; i < bfs.num_instances(); ++i) {
    for (const VertexId v : bfs.members(i)) {
      parents = fold(parents, v);
      parents = fold(parents, bfs.dist_of(i, v));
      parents = fold(parents, bfs.parent_of(i, v));
      parents = fold(parents, bfs.parent_edge_of(i, v));
    }
    parents = fold(parents, bfs.last_adoption_round(i));
    parents = fold(parents, bfs.max_depth(i));
    congest::TreeInstanceSpec spec = congest::tree_spec_from_multibfs(bfs, i);
    for (std::size_t k = 0; k < spec.members.size(); ++k)
      spec.value[k] = hash64(1000 * i + spec.members[k]) >> 8;
    tspecs.push_back(std::move(spec));
  }

  congest::MultiConvergecastProgram up(
      g, tspecs, [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
  congest::Simulator up_sim(g, 1);
  const congest::RunStats up_st = up_sim.run(up, 8 * g.num_vertices() + 64);
  std::uint64_t results = 0;
  std::vector<std::uint64_t> decisions;
  for (std::size_t i = 0; i < tspecs.size(); ++i) {
    EXPECT_TRUE(up.complete(i));
    decisions.push_back(up.result(i));
    results = fold(results, up.result(i));
  }

  congest::MultiBroadcastProgram down(g, tspecs, decisions);
  congest::Simulator down_sim(g, 1);
  const congest::RunStats down_st = down_sim.run(down, 8 * g.num_vertices() + 64);
  std::uint64_t values = 0;
  for (std::size_t i = 0; i < tspecs.size(); ++i) {
    EXPECT_TRUE(down.complete(i));
    for (const VertexId v : tspecs[i].members) values = fold(values, down.value_at(i, v));
  }
  return {pin_of(bfs_st, parents), pin_of(up_st, results), pin_of(down_st, values)};
}

RunPin run_multi_bf(const Graph& g) {
  Rng rng(0xbe11);
  const graph::EdgeWeights w = graph::random_weights(g, 20, rng);
  const std::vector<VertexId> sources = {0, g.num_vertices() / 3, g.num_vertices() - 1};
  congest::MultiBellmanFordProgram prog(g, w, sources);
  congest::Simulator sim(g, 1);
  const congest::RunStats st = sim.run(prog, 64 * g.num_vertices());
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < sources.size(); ++i)
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      h = fold(h, prog.dist_of(i, v));
      h = fold(h, prog.parent_of(i, v));
    }
  return pin_of(st, h);
}

/// The plain node-local programs: BFS and Bellman–Ford.
std::array<RunPin, 2> run_node_local(const Graph& g) {
  std::array<RunPin, 2> out{};
  {
    congest::Simulator sim(g, 1);
    congest::BfsProgram bfs(g.num_vertices(), 0);
    const congest::RunStats st = sim.run(bfs, g.num_vertices() + 2);
    std::uint64_t h = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      h = fold(fold(h, bfs.dist()[v]), bfs.parent()[v]);
    out[0] = pin_of(st, h);
  }
  {
    Rng rng(0xbf0);
    const graph::EdgeWeights w = graph::random_weights(g, 30, rng);
    congest::Simulator sim(g, 2);
    congest::BellmanFordProgram bf(g, w, 1);
    const congest::RunStats st = sim.run(bf, 4 * g.num_vertices());
    std::uint64_t h = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) h = fold(h, bf.dist()[v]);
    out[1] = pin_of(st, h);
  }
  return out;
}

/// Multi-BFS over two message slots per edge direction and round.
RunPin run_multi_bfs_capacity2(const Graph& g) {
  congest::MultiBfsProgram bfs(g, bfs_specs(g));
  congest::Simulator sim(g, 2);
  const congest::RunStats st = sim.run(bfs, 8 * g.num_vertices() + 64);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < bfs.num_instances(); ++i)
    for (const VertexId v : bfs.members(i))
      h = fold(fold(h, bfs.dist_of(i, v)), bfs.parent_of(i, v));
  return pin_of(st, h);
}

/// bfs_specs plus three more all-of-G instances, two of them starting
/// together: every edge carries four to five trees, so at capacity 2 a
/// slot often takes two tokens in one round.
std::vector<congest::BfsInstanceSpec> crowded_specs(const Graph& g) {
  std::vector<congest::BfsInstanceSpec> specs = bfs_specs(g);
  const VertexId n = g.num_vertices();
  const std::pair<VertexId, std::uint32_t> extra[] = {{0, 0}, {n - 1, 0}, {n / 3, 2}};
  for (const auto& [root, start] : extra) {
    congest::BfsInstanceSpec all;
    all.root = root;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all.edges.push_back(e);
    all.start_round = start;
    specs.push_back(std::move(all));
  }
  return specs;
}

/// Multi-BFS, convergecast and broadcast over two message slots per edge
/// direction and round, on one simulator, with the trees laid out straight
/// from the BFS program (TreeLayout).
TreePins run_tree_pipeline_capacity2(const Graph& g) {
  congest::MultiBfsProgram bfs(g, crowded_specs(g));
  congest::Simulator sim(g, 2);
  const congest::RunStats bfs_st = sim.run(bfs, 8 * g.num_vertices() + 64);
  std::uint64_t parents = 0;
  for (std::size_t i = 0; i < bfs.num_instances(); ++i) {
    for (const VertexId v : bfs.members(i))
      parents = fold(fold(fold(parents, bfs.dist_of(i, v)), bfs.parent_of(i, v)),
                     bfs.parent_edge_of(i, v));
    parents = fold(parents, bfs.last_adoption_round(i));
  }

  const congest::TreeLayout trees(bfs);
  const std::size_t instances = trees.num_instances();
  std::vector<std::uint64_t> values(trees.begin(instances));
  for (std::size_t i = 0; i < instances; ++i)
    for (std::size_t x = trees.begin(i); x < trees.begin(i + 1); ++x)
      values[x] = hash64(1000 * i + trees.vertex(x)) >> 8;
  congest::MultiConvergecastProgram up(
      g, trees, values, [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
  const congest::RunStats up_st = sim.run(up, 8 * g.num_vertices() + 64);
  std::uint64_t results = 0;
  std::vector<std::uint64_t> decisions;
  for (std::size_t i = 0; i < instances; ++i) {
    EXPECT_TRUE(up.complete(i));
    decisions.push_back(up.result(i));
    results = fold(results, up.result(i));
  }

  congest::MultiBroadcastProgram down(g, trees, decisions);
  const congest::RunStats down_st = sim.run(down, 8 * g.num_vertices() + 64);
  std::uint64_t got = 0;
  for (std::size_t i = 0; i < instances; ++i) {
    EXPECT_TRUE(down.complete(i));
    for (std::size_t x = trees.begin(i); x < trees.begin(i + 1); ++x)
      got = fold(got, down.value_at(i, trees.vertex(x)));
  }
  return {pin_of(bfs_st, parents), pin_of(up_st, results), pin_of(down_st, got)};
}

struct FamilyPins {
  RunPin bfs, up, down, bfs_cap2, multi_bf, node_bfs, node_bf;
  TreePins crowded_cap2;
};

TEST(CongestPins, ScheduledProgramsOnThreeFamilies) {
  ThreadReset reset;
  const std::vector<FamilyPins> expected = {
      // gnm140
      {{10, 990, 2, 0x225ea612b3dc87cbULL},
       {7, 272, 2, 0x8e5a583b165fee5ULL},
       {7, 272, 2, 0x6b893320c01e6070ULL},
       {10, 990, 2, 0x1adc9f2db4b4508bULL},
       {14, 3175, 9, 0x769a2494be56a37aULL},
       {7, 640, 1, 0xf9ad4f7aa065da34ULL},
       {10, 1294, 5, 0x7c51a0c78be901f7ULL},
       {{11, 2910, 5, 0x7b85084e1836bc7cULL},
        {9, 689, 5, 0xd25fc8b038bfe6d9ULL},
        {8, 689, 5, 0x9a312caf2f7a19d0ULL}}},
      // grid12x15
      {{23, 1216, 2, 0xd1e2735db91549bdULL},
       {21, 352, 2, 0xa0e3496596aa7708ULL},
       {21, 352, 2, 0xfc2779bcaef9c9c5ULL},
       {23, 1216, 2, 0x9080d1efd08e44c1ULL},
       {27, 2813, 9, 0x31baab5618c1f835ULL},
       {27, 666, 1, 0x5686efdf9445581dULL},
       {26, 852, 3, 0xa3b9a9632074ed5aULL},
       {{27, 3214, 5, 0x2f5bbaf1dc1d8868ULL},
        {26, 889, 4, 0xfcf9019f35f939b3ULL},
        {26, 889, 4, 0xc7bdeba87e47cc6cULL}}},
      // hard300
      {{9, 1722, 2, 0x243d26748bc2f06eULL},
       {7, 536, 2, 0x8700b10a027416b3ULL},
       {6, 536, 2, 0x7ac6f0435c6bcb6eULL},
       {8, 1722, 2, 0x53e9189d9d0cd107ULL},
       {13, 3860, 9, 0x1bd6b3394e2d0195ULL},
       {7, 1018, 1, 0xcf9ad1e870bf65c4ULL},
       {10, 1358, 4, 0xeccbadcf615c6d31ULL},
       {{9, 4776, 5, 0xc220ec9b863f22c7ULL},
        {8, 1349, 5, 0x81e4ed9ad3bcea02ULL},
        {6, 1349, 5, 0xccbbb70c8acee73aULL}}},
  };
  const std::vector<Family> fams = families();
  ASSERT_EQ(fams.size(), expected.size());
  for (const unsigned t : kPinThreads) {
    set_num_threads(t);
    for (std::size_t f = 0; f < fams.size(); ++f) {
      const Graph& g = fams[f].g;
      const TreePins tree = run_tree_pipeline(g);
      const std::array<RunPin, 2> node = run_node_local(g);
      const FamilyPins got{tree.bfs,        tree.up, tree.down, run_multi_bfs_capacity2(g),
                           run_multi_bf(g), node[0], node[1],   run_tree_pipeline_capacity2(g)};
      const FamilyPins& want = expected[f];
      const std::string ctx = fams[f].name + " @" + std::to_string(t) + "t";
      EXPECT_TRUE(got.bfs == want.bfs) << ctx << " multi-bfs observed " << literal(got.bfs);
      EXPECT_TRUE(got.up == want.up) << ctx << " convergecast observed " << literal(got.up);
      EXPECT_TRUE(got.down == want.down) << ctx << " broadcast observed " << literal(got.down);
      EXPECT_TRUE(got.bfs_cap2 == want.bfs_cap2)
          << ctx << " multi-bfs capacity 2 observed " << literal(got.bfs_cap2);
      EXPECT_TRUE(got.multi_bf == want.multi_bf)
          << ctx << " multi-bellman-ford observed " << literal(got.multi_bf);
      EXPECT_TRUE(got.node_bfs == want.node_bfs)
          << ctx << " parallel bfs observed " << literal(got.node_bfs);
      EXPECT_TRUE(got.node_bf == want.node_bf)
          << ctx << " parallel bellman-ford observed " << literal(got.node_bf);
      const TreePins& c2 = got.crowded_cap2;
      EXPECT_TRUE(c2.bfs == want.crowded_cap2.bfs)
          << ctx << " crowded multi-bfs capacity 2 observed " << literal(c2.bfs);
      EXPECT_TRUE(c2.up == want.crowded_cap2.up)
          << ctx << " crowded convergecast capacity 2 observed " << literal(c2.up);
      EXPECT_TRUE(c2.down == want.crowded_cap2.down)
          << ctx << " crowded broadcast capacity 2 observed " << literal(c2.down);
    }
  }
}

// --- Borůvka over shortcuts ---------------------------------------------------

/// The mix_gnm benchmark's graph: connected_gnm(300, 900) from its fixed
/// seed.  Its diameter makes KP's p clamp to 1.
Graph mix_gnm_graph() {
  Rng gen(0x6d69785f676e6dULL);
  return graph::connected_gnm(300, 900, gen);
}

/// Dense enough for diameter 4, where KP's p stays below 1.
Graph sampled_graph() {
  Rng gen(0x5a3b1ed);
  return graph::connected_gnm(400, 2400, gen);
}

struct BoruvkaPin {
  std::uint32_t phases;
  /// Per phase: {fragments, bfs rounds, up rounds, down rounds}.
  std::vector<std::array<std::uint32_t, 4>> rounds;
  std::uint64_t messages;
  std::uint64_t construction_rounds;
  std::uint64_t edge_hash;
  bool operator==(const BoruvkaPin&) const = default;
};

std::string literal(const BoruvkaPin& p) {
  std::ostringstream os;
  os << "{" << p.phases << ", {";
  for (std::size_t i = 0; i < p.rounds.size(); ++i) {
    const auto& r = p.rounds[i];
    os << (i ? ", " : "") << "{" << r[0] << ", " << r[1] << ", " << r[2] << ", " << r[3] << "}";
  }
  os << "}, " << p.messages << ", " << p.construction_rounds << ", 0x" << std::hex << p.edge_hash
     << "ULL}";
  return os.str();
}

BoruvkaPin boruvka_pin(const Graph& g, const graph::EdgeWeights& w, mst::ShortcutScheme scheme) {
  mst::BoruvkaOptions opt;
  opt.scheme = scheme;
  opt.seed = 0xb0b0;
  const mst::BoruvkaResult r = mst::boruvka_mst(g, w, opt);
  BoruvkaPin p{r.phases, {}, r.messages, r.construction_rounds, hash64(r.mst.weight)};
  std::uint64_t aggregation = 0;
  for (const mst::PhaseStats& ps : r.phase_stats) {
    p.rounds.push_back({ps.fragments, ps.bfs_rounds, ps.up_rounds, ps.down_rounds});
    EXPECT_EQ(ps.rounds_charged, ps.bfs_rounds + ps.up_rounds + ps.down_rounds + 1);
    aggregation += ps.rounds_charged;
  }
  EXPECT_EQ(r.aggregation_rounds, aggregation);
  for (const graph::EdgeId e : r.mst.edges) p.edge_hash = fold(p.edge_hash, e);
  EXPECT_EQ(r.mst.weight, mst::kruskal(g, w).weight);
  return p;
}

void expect_boruvka_pins(const Graph& g, const std::vector<BoruvkaPin>& expected) {
  ThreadReset reset;
  Rng rng(0x901d);
  const graph::EdgeWeights w = graph::random_weights(g, 16, rng);
  const mst::ShortcutScheme schemes[] = {mst::ShortcutScheme::kKoganParter,
                                         mst::ShortcutScheme::kGhaffariHaeupler,
                                         mst::ShortcutScheme::kNone};
  const char* names[] = {"kp", "gh", "none"};
  ASSERT_EQ(expected.size(), std::size(schemes));
  for (const unsigned t : kPinThreads) {
    set_num_threads(t);
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
      const BoruvkaPin got = boruvka_pin(g, w, schemes[s]);
      EXPECT_TRUE(got == expected[s])
          << names[s] << " @" << t << "t observed " << literal(got);
    }
  }
}

double kp_sample_prob(const Graph& g) {
  return ShortcutParams::make(g.num_vertices(), graph::diameter_double_sweep(g)).sample_prob;
}

TEST(CongestPins, BoruvkaOnMixGnmGraph) {
  const Graph g = mix_gnm_graph();
  EXPECT_GE(kp_sample_prob(g), 1.0);
  expect_boruvka_pins(g, {
      {4, {{300, 1, 0, 0}, {71, 9, 7, 6}, {12, 19, 15, 13}, {4, 10, 9, 9}}, 34524, 1276,
       0x7a286f5c87f208a8ULL},
      {4, {{300, 1, 0, 0}, {71, 7, 6, 6}, {12, 16, 13, 11}, {4, 10, 9, 9}}, 27496, 72,
       0x7a286f5c87f208a8ULL},
      {4, {{300, 1, 0, 0}, {71, 7, 6, 6}, {12, 12, 11, 11}, {4, 11, 10, 10}}, 3764, 0,
       0x7a286f5c87f208a8ULL},
  });
}

TEST(CongestPins, BoruvkaWhereKpSamples) {
  const Graph g = sampled_graph();
  ASSERT_LT(kp_sample_prob(g), 1.0);
  expect_boruvka_pins(g, {
      {4, {{400, 1, 0, 0}, {90, 17, 10, 10}, {17, 22, 11, 11}, {2, 8, 6, 5}}, 135324, 1060,
       0x3fb5a9d1265e2e70ULL},
      {4, {{400, 1, 0, 0}, {90, 9, 6, 6}, {17, 18, 10, 9}, {2, 8, 6, 5}}, 63136, 80,
       0x3fb5a9d1265e2e70ULL},
      {4, {{400, 1, 0, 0}, {90, 7, 6, 6}, {17, 10, 9, 9}, {2, 8, 7, 7}}, 8104, 0,
       0x3fb5a9d1265e2e70ULL},
  });
}

}  // namespace
}  // namespace lcs
