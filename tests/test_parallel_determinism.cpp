// The determinism fleet: every kernel must produce byte-identical results
// whatever the configured pool size (1, 2 and 8 threads), across ~50
// randomized (generator, partition, seed) combinations.  The kernels are
// sequential, so this pins that no kernel reads the thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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
#include "mincut/mincut.hpp"
#include "mst/mst.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lcs {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

struct Instance {
  std::string name;
  graph::Graph g;
  graph::Partition parts;
};

/// ~50 (generator, partition, seed) combos, all test-scale.
std::vector<Instance> instances() {
  std::vector<Instance> out;
  const auto add = [&](std::string name, graph::Graph g, graph::Partition parts) {
    out.push_back({std::move(name), std::move(g), std::move(parts)});
  };

  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const std::uint32_t n : {60u, 140u, 260u}) {
      Rng rng(seed);
      const graph::Graph g = graph::connected_gnm(n, 2 * n, rng);
      add("gnm_ball/" + std::to_string(n) + "/" + std::to_string(seed), g,
          graph::ball_partition(g, n / 20, rng));
      add("gnm_forest/" + std::to_string(n) + "/" + std::to_string(seed), g,
          graph::forest_partition(g, 12, rng));
      add("gnm_singleton/" + std::to_string(n) + "/" + std::to_string(seed), g,
          graph::singleton_partition(g));
    }
    for (const std::uint32_t n : {80u, 200u}) {
      Rng rng(seed + 1);
      const graph::Graph t = graph::random_tree(n, rng);
      add("tree_forest/" + std::to_string(n) + "/" + std::to_string(seed), t,
          graph::forest_partition(t, 9, rng));
      const graph::Graph pa = graph::preferential_attachment(n, 3, rng);
      add("pa_ball/" + std::to_string(n) + "/" + std::to_string(seed), pa,
          graph::ball_partition(pa, 5, rng));
      const graph::Graph lay = graph::layered_random_graph(n, 6, 1.5, rng);
      add("layered_ball/" + std::to_string(n) + "/" + std::to_string(seed), lay,
          graph::ball_partition(lay, 4, rng));
    }
  }
  for (const std::uint32_t n : {150u, 300u, 600u}) {
    for (const std::uint32_t d : {4u, 5u, 6u}) {
      graph::HardInstance hi = graph::hard_instance(n, d);
      add("hard/" + std::to_string(n) + "/D" + std::to_string(d), std::move(hi.g),
          std::move(hi.paths));
    }
  }
  {
    Rng rng(7);
    const graph::Graph grid = graph::grid_graph(12, 14);
    add("grid_forest", grid, graph::forest_partition(grid, 10, rng));
    const graph::Graph cyc = graph::cycle_graph(64);
    add("cycle_ball", cyc, graph::ball_partition(cyc, 4, rng));
    const graph::Graph path = graph::path_graph(40);
    add("path_component", path, graph::component_partition(path));
  }
  return out;
}

void expect_part_equal(const core::PartDilation& a, const core::PartDilation& b,
                       const std::string& ctx) {
  EXPECT_EQ(a.covered, b.covered) << ctx;
  EXPECT_EQ(a.cover_radius, b.cover_radius) << ctx;
  EXPECT_EQ(a.diameter_lb, b.diameter_lb) << ctx;
  EXPECT_EQ(a.diameter_ub, b.diameter_ub) << ctx;
  EXPECT_EQ(a.exact, b.exact) << ctx;
}

void expect_report_equal(const core::QualityReport& a, const core::QualityReport& b,
                         const std::string& ctx) {
  EXPECT_EQ(a.congestion, b.congestion) << ctx;
  EXPECT_EQ(a.dilation_lb, b.dilation_lb) << ctx;
  EXPECT_EQ(a.dilation_ub, b.dilation_ub) << ctx;
  EXPECT_EQ(a.max_cover_radius, b.max_cover_radius) << ctx;
  EXPECT_EQ(a.all_covered, b.all_covered) << ctx;
  ASSERT_EQ(a.parts.size(), b.parts.size()) << ctx;
  for (std::size_t i = 0; i < a.parts.size(); ++i) {
    expect_part_equal(a.parts[i], b.parts[i], ctx + " part " + std::to_string(i));
  }
}

/// Runs `compute` at every thread count and asserts `check(reference, run)`.
template <typename T>
void across_thread_counts(const std::function<T()>& compute,
                          const std::function<void(const T&, const T&, unsigned)>& check) {
  const unsigned previous = thread_override();
  set_num_threads(kThreadCounts[0]);
  const T reference = compute();
  for (const unsigned t : kThreadCounts) {
    set_num_threads(t);
    const T run = compute();
    check(reference, run, t);
  }
  set_num_threads(previous);
}

TEST(ParallelDeterminism, MeasureQualityBitIdentical) {
  for (const Instance& inst : instances()) {
    // A KP shortcut set exercises both stray-edge and step-1-only parts.
    core::KpOptions opt;
    opt.seed = 97;
    const core::ShortcutSet sc = core::build_kp_shortcuts(inst.g, inst.parts, opt).shortcuts;
    across_thread_counts<core::QualityReport>(
        [&] { return core::measure_quality(inst.g, inst.parts, sc); },
        [&](const core::QualityReport& ref, const core::QualityReport& got, unsigned t) {
          expect_report_equal(ref, got, inst.name + " @" + std::to_string(t) + "t");
        });
  }
}

TEST(ParallelDeterminism, EdgeCongestionBitIdentical) {
  for (const Instance& inst : instances()) {
    core::KpOptions opt;
    opt.seed = 131;
    const core::ShortcutSet sc = core::build_kp_shortcuts(inst.g, inst.parts, opt).shortcuts;
    across_thread_counts<std::vector<std::uint32_t>>(
        [&] { return core::edge_congestion(inst.g, inst.parts, sc); },
        [&](const std::vector<std::uint32_t>& ref, const std::vector<std::uint32_t>& got,
            unsigned t) {
          EXPECT_EQ(ref, got) << inst.name << " @" << t << "t";
        });
  }
}

TEST(ParallelDeterminism, KpBuildBitIdentical) {
  for (const Instance& inst : instances()) {
    core::KpOptions opt;
    opt.seed = 53;
    across_thread_counts<core::KpBuildResult>(
        [&] { return core::build_kp_shortcuts(inst.g, inst.parts, opt); },
        [&](const core::KpBuildResult& ref, const core::KpBuildResult& got, unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.shortcuts.h, got.shortcuts.h) << ctx;
          EXPECT_EQ(ref.is_large, got.is_large) << ctx;
          EXPECT_EQ(ref.num_large, got.num_large) << ctx;
        });
  }
}

TEST(ParallelDeterminism, KpStreamedQualityBitIdentical) {
  // The streamed measurement must match itself across thread counts AND the
  // materialized build + measure_quality pipeline.
  for (const Instance& inst : instances()) {
    core::KpOptions opt;
    opt.seed = 71;
    across_thread_counts<core::KpStreamReport>(
        [&] { return core::measure_kp_quality(inst.g, inst.parts, opt); },
        [&](const core::KpStreamReport& ref, const core::KpStreamReport& got, unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.total_shortcut_edges, got.total_shortcut_edges) << ctx;
          expect_report_equal(ref.quality, got.quality, ctx);
        });
    set_num_threads(8);
    const core::KpStreamReport streamed = core::measure_kp_quality(inst.g, inst.parts, opt);
    const core::KpBuildResult built = core::build_kp_shortcuts(inst.g, inst.parts, opt);
    const core::QualityReport direct = core::measure_quality(inst.g, inst.parts, built.shortcuts);
    expect_report_equal(streamed.quality, direct, inst.name + " streamed-vs-direct");
    set_num_threads(0);
  }
}

TEST(ParallelDeterminism, OddDiameterBuildBitIdentical) {
  for (const std::uint32_t n : {200u, 400u}) {
    graph::HardInstance hi = graph::hard_instance(n, 5);
    core::KpOptions opt;
    opt.seed = 41;
    opt.diameter = 5;
    across_thread_counts<core::KpBuildResult>(
        [&] { return core::build_kp_shortcuts_odd(hi.g, hi.paths, opt); },
        [&](const core::KpBuildResult& ref, const core::KpBuildResult& got, unsigned t) {
          EXPECT_EQ(ref.shortcuts.h, got.shortcuts.h) << "odd n=" << n << " @" << t << "t";
        });
  }
}

// --- PR 3: referee & application layer ------------------------------------

/// Small weighted instances for the mincut/MST referees (Stoer–Wagner is
/// O(n^3), so these stay test-scale).
struct WeightedInstance {
  std::string name;
  graph::Graph g;
  graph::EdgeWeights w;
};

std::vector<WeightedInstance> weighted_instances() {
  std::vector<WeightedInstance> out;
  for (const std::uint64_t seed : {3ull, 17ull}) {
    Rng rng(seed);
    for (const std::uint32_t n : {24u, 60u, 120u}) {
      graph::Graph g = graph::connected_gnm(n, 3 * n, rng);
      graph::EdgeWeights w = graph::random_weights(g, 12, rng);
      out.push_back({"gnm/" + std::to_string(n) + "/" + std::to_string(seed), std::move(g),
                     std::move(w)});
    }
  }
  {
    const graph::Graph bell = graph::dumbbell_graph(8, 5);
    out.push_back({"dumbbell", bell, graph::EdgeWeights(bell.num_edges(), 1)});
    const graph::Graph grid = graph::grid_graph(9, 11);
    Rng rng(5);
    out.push_back({"grid", grid, graph::random_weights(grid, 7, rng)});
  }
  return out;
}

TEST(ParallelDeterminism, StoerWagnerBitIdentical) {
  for (const WeightedInstance& inst : weighted_instances()) {
    across_thread_counts<mincut::CutResult>(
        [&] { return mincut::stoer_wagner(inst.g, inst.w); },
        [&](const mincut::CutResult& ref, const mincut::CutResult& got, unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.value, got.value) << ctx;
          EXPECT_EQ(ref.side, got.side) << ctx;
        });
  }
}

TEST(ParallelDeterminism, KargerTrialsBitIdentical) {
  for (const WeightedInstance& inst : weighted_instances()) {
    // A fresh same-seeded generator per run: the trial family is derived
    // from one draw, so identical seeds must give identical cuts at any
    // thread count.
    across_thread_counts<mincut::CutResult>(
        [&] {
          Rng krng(911);
          return mincut::karger_mincut(inst.g, inst.w, 32, krng);
        },
        [&](const mincut::CutResult& ref, const mincut::CutResult& got, unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.value, got.value) << ctx;
          EXPECT_EQ(ref.side, got.side) << ctx;
          EXPECT_EQ(mincut::cut_value(inst.g, inst.w, got.side), got.value) << ctx;
        });
  }
}

TEST(ParallelDeterminism, TreePackingBitIdentical) {
  for (const WeightedInstance& inst : weighted_instances()) {
    across_thread_counts<mincut::TreePackingResult>(
        [&] { return mincut::tree_packing_mincut(inst.g, inst.w); },
        [&](const mincut::TreePackingResult& ref, const mincut::TreePackingResult& got,
            unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.cut.value, got.cut.value) << ctx;
          EXPECT_EQ(ref.cut.side, got.cut.side) << ctx;
          EXPECT_EQ(ref.best_tree, got.best_tree) << ctx;
        });
  }
}

TEST(ParallelDeterminism, KruskalBitIdentical) {
  for (const WeightedInstance& inst : weighted_instances()) {
    across_thread_counts<mst::MstResult>(
        [&] { return mst::kruskal(inst.g, inst.w); },
        [&](const mst::MstResult& ref, const mst::MstResult& got, unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.edges, got.edges) << ctx;
          EXPECT_EQ(ref.weight, got.weight) << ctx;
        });
  }
}

TEST(ParallelDeterminism, BoruvkaBitIdentical) {
  // Boruvka exercises the whole pipeline at once: the MWOE scan, the
  // spec/tspec setup, the multi-BFS/multi-tree constructors and the
  // simulator's delivery.  Round/message counts are part of the result: the
  // thread count must not leak into the simulation.
  for (const WeightedInstance& inst : weighted_instances()) {
    if (inst.g.num_vertices() > 80) continue;  // keep the simulated runs fast
    mst::BoruvkaOptions opt;
    opt.seed = 77;
    across_thread_counts<mst::BoruvkaResult>(
        [&] { return mst::boruvka_mst(inst.g, inst.w, opt); },
        [&](const mst::BoruvkaResult& ref, const mst::BoruvkaResult& got, unsigned t) {
          const std::string ctx = inst.name + " @" + std::to_string(t) + "t";
          EXPECT_EQ(ref.mst.edges, got.mst.edges) << ctx;
          EXPECT_EQ(ref.mst.weight, got.mst.weight) << ctx;
          EXPECT_EQ(ref.phases, got.phases) << ctx;
          EXPECT_EQ(ref.aggregation_rounds, got.aggregation_rounds) << ctx;
          EXPECT_EQ(ref.construction_rounds, got.construction_rounds) << ctx;
          EXPECT_EQ(ref.messages, got.messages) << ctx;
        });
  }
}

/// Per-part BFS instances over the induced part edges (empty shortcut set).
std::vector<congest::BfsInstanceSpec> part_bfs_specs(const graph::Graph& g,
                                                     const graph::Partition& parts) {
  std::vector<congest::BfsInstanceSpec> specs;
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    congest::BfsInstanceSpec spec;
    spec.root = parts.leader(i);
    spec.edges = core::induced_part_edges(g, parts.parts[i]);
    spec.start_round = static_cast<std::uint32_t>(i % 3);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ParallelDeterminism, MultiBfsMultiTreeBitIdentical) {
  Rng rng(31);
  const graph::Graph g = graph::connected_gnm(140, 320, rng);
  const graph::Partition parts = graph::ball_partition(g, 6, rng);

  struct Outcome {
    congest::RunStats bfs_stats;
    std::vector<std::uint32_t> dists;
    std::vector<graph::VertexId> parents;
    std::vector<std::uint64_t> up_results;
    std::vector<std::uint64_t> down_values;
  };
  across_thread_counts<Outcome>(
      [&] {
        Outcome out;
        congest::MultiBfsProgram prog(g, part_bfs_specs(g, parts));
        out.bfs_stats = congest::run_multi_bfs(g, prog, 8 * g.num_vertices() + 64).stats;
        std::vector<congest::TreeInstanceSpec> tspecs;
        for (std::size_t i = 0; i < prog.num_instances(); ++i) {
          for (const graph::VertexId v : prog.members(i)) {
            out.dists.push_back(prog.dist_of(i, v));
            out.parents.push_back(prog.parent_of(i, v));
          }
          congest::TreeInstanceSpec spec = congest::tree_spec_from_multibfs(prog, i);
          for (std::size_t k = 0; k < spec.members.size(); ++k)
            spec.value[k] = 1000ull * i + spec.members[k];
          tspecs.push_back(std::move(spec));
        }
        congest::MultiConvergecastProgram up(
            g, tspecs, [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
        congest::Simulator up_sim(g, 1);
        up_sim.run(up, 8 * g.num_vertices() + 64);
        std::vector<std::uint64_t> decisions;
        for (std::size_t i = 0; i < tspecs.size(); ++i) {
          EXPECT_TRUE(up.complete(i));
          decisions.push_back(up.result(i));
        }
        out.up_results = decisions;
        congest::MultiBroadcastProgram down(g, tspecs, decisions);
        congest::Simulator down_sim(g, 1);
        down_sim.run(down, 8 * g.num_vertices() + 64);
        for (std::size_t i = 0; i < tspecs.size(); ++i)
          for (const graph::VertexId v : tspecs[i].members)
            out.down_values.push_back(down.value_at(i, v));
        return out;
      },
      [&](const Outcome& ref, const Outcome& got, unsigned t) {
        const std::string ctx = "multi @" + std::to_string(t) + "t";
        EXPECT_EQ(ref.bfs_stats.rounds, got.bfs_stats.rounds) << ctx;
        EXPECT_EQ(ref.bfs_stats.messages, got.bfs_stats.messages) << ctx;
        EXPECT_EQ(ref.bfs_stats.max_edge_load, got.bfs_stats.max_edge_load) << ctx;
        EXPECT_EQ(ref.dists, got.dists) << ctx;
        EXPECT_EQ(ref.parents, got.parents) << ctx;
        EXPECT_EQ(ref.up_results, got.up_results) << ctx;
        EXPECT_EQ(ref.down_values, got.down_values) << ctx;
      });
}

TEST(ParallelDeterminism, ParallelDeliveryMatchesSequential) {
  // The simulator runs on its caller's thread: a run must read the same
  // whatever thread count the caller set.
  Rng rng(9);
  const graph::Graph g = graph::connected_gnm(301, 900, rng);
  graph::EdgeWeights w(g.num_edges());
  for (auto& x : w) x = static_cast<graph::Weight>(1 + rng.uniform(40));
  congest::Simulator seq_sim(g);
  congest::BellmanFordProgram seq_bf(g, w, 0);
  const congest::RunStats seq = seq_sim.run(seq_bf, 200);
  for (const unsigned t : kThreadCounts) {
    set_num_threads(t);
    congest::Simulator sim(g);
    congest::BellmanFordProgram bf(g, w, 0);
    const congest::RunStats par = sim.run(bf, 200);
    EXPECT_EQ(seq.rounds, par.rounds) << t;
    EXPECT_EQ(seq.messages, par.messages) << t;
    EXPECT_EQ(seq.max_edge_load, par.max_edge_load) << t;
    EXPECT_EQ(seq_bf.dist(), bf.dist()) << t;
  }
  set_num_threads(0);
}

TEST(ParallelDeterminism, ExactDiameterBitIdentical) {
  std::vector<std::pair<std::string, graph::Graph>> graphs;
  {
    Rng rng(13);
    graphs.emplace_back("gnm260", graph::connected_gnm(260, 700, rng));
    graphs.emplace_back("grid", graph::grid_graph(14, 17));
    graphs.emplace_back("hard", graph::hard_instance(300, 5).g);
    graphs.emplace_back("path", graph::path_graph(120));
    // Around one 64-source block: a partial last block at every thread count.
    for (const std::uint32_t n : {63u, 64u, 65u})
      graphs.emplace_back("gnm" + std::to_string(n), graph::connected_gnm(n, 2 * n, rng));
  }
  for (const auto& [name, g] : graphs) {
    across_thread_counts<std::uint32_t>(
        [&, &g = g] { return graph::diameter_exact(g); },
        [&, &name = name](const std::uint32_t& ref, const std::uint32_t& got, unsigned t) {
          EXPECT_EQ(ref, got) << name << " @" << t << "t";
        });
  }
}

TEST(ParallelDeterminism, RngSplitIsCounterBased) {
  Rng base(12345);
  // Draining the parent does not change split streams (unlike fork).
  Rng drained(12345);
  for (int i = 0; i < 100; ++i) (void)drained();
  for (const std::uint64_t stream : {0ull, 1ull, 2ull, 1ull << 40}) {
    Rng a = base.split(stream);
    Rng b = drained.split(stream);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b()) << stream;
  }
  // Distinct streams diverge.
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  bool differs = false;
  for (int i = 0; i < 16; ++i) differs = differs || (s0() != s1());
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace lcs
