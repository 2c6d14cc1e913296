// Micro-benchmarks of the core primitives: coin flips, per-part sampling,
// BFS, simulator round overhead, scheduled multi-BFS per message,
// shortcut-tree build.  Each is its own scenario so `lcsbench micro_bfs
// --json ...` tracks one primitive; the ns/op numbers land in the JSON
// metrics.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "congest/multibfs.hpp"
#include "congest/programs.hpp"
#include "congest/simulator.hpp"
#include "core/coin.hpp"
#include "core/kp.hpp"
#include "core/shortcut_tree.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace lcs;
using lcs::bench::do_not_optimize;
using lcs::bench::time_ns_per_op;

}  // namespace

LCS_BENCH_SCENARIO(micro_coin_flip, "micro: pseudorandom directed coin flip",
                   "fixed p=0.3, hash-indexed flips") {
  const core::CoinFlipper coins(ctx.seed(42), 0.3);
  const std::uint64_t iters = ctx.smoke() ? 1u << 16 : 1u << 22;
  std::uint32_t e = 0;
  const double ns = time_ns_per_op(iters, [&] { do_not_optimize(coins.flip(e++, 0, 7, 3)); });
  ctx.out() << "coin flip: " << ns << " ns/op over " << iters << " iterations\n";
  ctx.metric("ns_per_op", ns);
}

LCS_BENCH_SCENARIO(micro_rng_uniform, "micro: Rng::uniform draw", "uniform(1000)") {
  Rng rng(ctx.seed(1));
  const std::uint64_t iters = ctx.smoke() ? 1u << 16 : 1u << 22;
  const double ns = time_ns_per_op(iters, [&] { do_not_optimize(rng.uniform(1000)); });
  ctx.out() << "rng uniform: " << ns << " ns/op over " << iters << " iterations\n";
  ctx.metric("ns_per_op", ns);
}

LCS_BENCH_SCENARIO(micro_bfs, "micro: full BFS on the hard instance",
                   "n in {1024,4096} (smoke: {1024}), D=4") {
  Table t({"n", "m", "us/bfs", "ns/edge"});
  for (const std::uint32_t n : ctx.n_sweep({1024}, {1024, 4096})) {
    const graph::HardInstance hi = graph::hard_instance(n, 4);
    const std::uint64_t iters = ctx.smoke() ? 20 : 200;
    const double ns =
        time_ns_per_op(iters, [&] { do_not_optimize(graph::bfs(hi.g, 0).reached); });
    t.row()
        .cell(hi.g.num_vertices())
        .cell(hi.g.num_edges())
        .cell(ns / 1e3, 2)
        .cell(ns / static_cast<double>(hi.g.num_edges()), 2);
    ctx.metric("ns_per_edge_n" + std::to_string(n),
               ns / static_cast<double>(hi.g.num_edges()));
  }
  t.print(ctx.out(), "micro: BFS throughput");
}

LCS_BENCH_SCENARIO(micro_kp_sample_part, "micro: KP edge sampling for one part",
                   "n in {1024,4096} (smoke: {1024}), D=4") {
  Table t({"n", "us/part", "ns/(edge*rep)"});
  for (const std::uint32_t n : ctx.n_sweep({1024}, {1024, 4096})) {
    const graph::HardInstance hi = graph::hard_instance(n, 4);
    const ShortcutParams params = ShortcutParams::make(hi.g.num_vertices(), 4);
    const std::uint64_t iters = ctx.smoke() ? 20 : 100;
    const double ns = time_ns_per_op(iters, [&] {
      do_not_optimize(
          core::kp_edges_for_part(hi.g, hi.paths, 0, params, 0, 1, params.repetitions)
              .size());
    });
    const double per_unit =
        ns / (static_cast<double>(hi.g.num_edges()) * params.repetitions);
    t.row().cell(hi.g.num_vertices()).cell(ns / 1e3, 2).cell(per_unit, 3);
    ctx.metric("ns_per_edge_rep_n" + std::to_string(n), per_unit);
  }
  t.print(ctx.out(), "micro: per-part sampling throughput");
}

LCS_BENCH_SCENARIO(micro_simulator_round, "micro: CONGEST simulator BFS run",
                   "connected G(n,3n), n in {512,2048} (smoke: {512})") {
  Table t({"n", "m", "us/run", "ns/edge"});
  for (const std::uint32_t n : ctx.n_sweep({512}, {512, 2048})) {
    Rng rng(3);
    const graph::Graph g = graph::connected_gnm(n, 3 * n, rng);
    const std::uint64_t iters = ctx.smoke() ? 10 : 50;
    const double ns = time_ns_per_op(iters, [&] {
      congest::BfsProgram prog(g.num_vertices(), 0);
      congest::Simulator sim(g, 1);
      do_not_optimize(sim.run(prog, 1 << 20).rounds);
    });
    t.row()
        .cell(g.num_vertices())
        .cell(g.num_edges())
        .cell(ns / 1e3, 2)
        .cell(ns / static_cast<double>(g.num_edges()), 2);
    ctx.metric("ns_per_edge_n" + std::to_string(n), ns / static_cast<double>(g.num_edges()));
  }
  t.print(ctx.out(), "micro: simulator round overhead");
}

LCS_BENCH_SCENARIO(micro_multibfs, "micro: scheduled multi-BFS, cost per simulated message",
                   "10 all-of-G instances, staggered starts, connected G(2000, 6000)") {
  // The Borůvka phase shape at p = 1: every large fragment's BFS runs over
  // all of G, so instances contend for every edge and queue.
  Rng rng(ctx.seed(17));
  const graph::Graph g = graph::connected_gnm(2000, 6000, rng);
  std::vector<congest::BfsInstanceSpec> specs(10);
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    specs[i].root = i * (g.num_vertices() / 10);
    specs[i].start_round = i;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) specs[i].edges.push_back(e);
  }
  congest::RunStats stats;
  const std::uint64_t iters = ctx.smoke() ? 3 : 20;
  const double ns = time_ns_per_op(iters, [&] {
    congest::MultiBfsProgram prog(g, specs);
    congest::Simulator sim(g, 1);
    stats = sim.run(prog, 8 * g.num_vertices() + 64);
    do_not_optimize(stats.rounds);
  });
  const double ns_per_message = ns / static_cast<double>(stats.messages);
  Table t({"n", "m", "instances", "rounds", "messages", "us/run", "ns/message"});
  t.row()
      .cell(g.num_vertices())
      .cell(g.num_edges())
      .cell(specs.size())
      .cell(stats.rounds)
      .cell(stats.messages)
      .cell(ns / 1e3, 2)
      .cell(ns_per_message, 2);
  t.print(ctx.out(), "micro: scheduled multi-BFS");
  ctx.metric("m", static_cast<std::uint64_t>(g.num_edges()));
  ctx.metric("instances", static_cast<std::uint64_t>(specs.size()));
  ctx.metric("rounds", static_cast<std::uint64_t>(stats.rounds));
  ctx.metric("messages", stats.messages);
  ctx.metric("ns_per_message", ns_per_message);
}

LCS_BENCH_SCENARIO(micro_shortcut_tree_build, "micro: shortcut-tree construction",
                   "15-node path prefix, n in {512,2048} (smoke: {512}), D=4") {
  Table t({"n", "us/build"});
  const std::uint64_t seed = ctx.seed(9);
  for (const std::uint32_t n : ctx.n_sweep({512}, {512, 2048})) {
    const graph::HardInstance hi = graph::hard_instance(n, 4);
    const ShortcutParams params = ShortcutParams::make(hi.g.num_vertices(), 4);
    std::vector<graph::VertexId> path(hi.paths.parts[0].begin(),
                                      hi.paths.parts[0].begin() + 15);
    const std::vector<graph::VertexId> q{hi.paths.leader(1)};
    const std::uint64_t iters = ctx.smoke() ? 20 : 100;
    const double ns = time_ns_per_op(iters, [&] {
      const core::ShortcutTree st(hi.g, path, q, 4, seed, params.sample_prob, 0);
      do_not_optimize(st.tree_complete());
    });
    t.row().cell(hi.g.num_vertices()).cell(ns / 1e3, 2);
    ctx.metric("us_per_build_n" + std::to_string(n), ns / 1e3);
  }
  t.print(ctx.out(), "micro: shortcut-tree build");
}
