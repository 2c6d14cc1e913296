// Micro-benchmarks of the core primitives: coin flips, per-part sampling,
// BFS, simulator round overhead, scheduled multi-BFS, convergecast and
// broadcast per message, shortcut-tree build.  Each is its own scenario so `lcsbench micro_bfs
// --json ...` tracks one primitive; the ns/op numbers land in the JSON
// metrics.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "congest/multibfs.hpp"
#include "congest/multitree.hpp"
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

LCS_BENCH_SCENARIO(micro_multibfs,
                   "micro: scheduled multi-BFS, convergecast and broadcast, cost per message",
                   "10 all-of-G instances, staggered starts, connected G(2000, 6000); "
                   "min-convergecast and broadcast over the BFS trees") {
  // The Borůvka phase shape at p = 1: every large fragment's BFS runs over
  // all of G, so instances contend for every edge and queue; then each
  // fragment aggregates up its tree and broadcasts the result down.
  Rng rng(ctx.seed(17));
  const graph::Graph g = graph::connected_gnm(2000, 6000, rng);
  std::vector<congest::BfsInstanceSpec> specs(10);
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    specs[i].root = i * (g.num_vertices() / 10);
    specs[i].start_round = i;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) specs[i].edges.push_back(e);
  }
  const std::uint32_t max_rounds = 8 * g.num_vertices() + 64;
  congest::RunStats stats;
  const std::uint64_t iters = ctx.smoke() ? 3 : 20;
  const double ns = time_ns_per_op(iters, [&] {
    congest::MultiBfsProgram prog(g, specs);
    congest::Simulator sim(g, 1);
    stats = sim.run(prog, max_rounds);
    do_not_optimize(stats.rounds);
  });

  // Tree legs over one BFS result: every all-of-G tree spans all n
  // vertices, so each leg sends instances * (n - 1) messages.  Each
  // iteration restarts the program over the same layout, as a Borůvka
  // phase does.
  congest::Simulator sim(g, 1);
  congest::MultiBfsProgram bfs(g, specs);
  sim.run(bfs, max_rounds);
  const congest::TreeLayout trees(bfs);
  std::vector<std::uint64_t> values(trees.begin(trees.num_instances()));
  for (std::size_t x = 0; x < values.size(); ++x) values[x] = hash64(x) >> 8;
  congest::MultiConvergecastProgram up(
      g, [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
  congest::RunStats up_stats;
  const double up_ns = time_ns_per_op(iters, [&] {
    up.reset(trees, values);
    up_stats = sim.run(up, max_rounds);
    do_not_optimize(up_stats.rounds);
  });
  std::vector<std::uint64_t> roots(trees.num_instances());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = up.result(i);
  congest::MultiBroadcastProgram down(g);
  congest::RunStats down_stats;
  const double down_ns = time_ns_per_op(iters, [&] {
    down.reset(trees, roots);
    down_stats = sim.run(down, max_rounds);
    do_not_optimize(down_stats.rounds);
  });

  const double ns_per_message = ns / static_cast<double>(stats.messages);
  const double ns_up = up_ns / static_cast<double>(up_stats.messages);
  const double ns_down = down_ns / static_cast<double>(down_stats.messages);
  Table t({"leg", "n", "m", "instances", "rounds", "messages", "us/run", "ns/message"});
  const auto row = [&](const char* leg, const congest::RunStats& st, double leg_ns) {
    t.row()
        .cell(leg)
        .cell(g.num_vertices())
        .cell(g.num_edges())
        .cell(specs.size())
        .cell(st.rounds)
        .cell(st.messages)
        .cell(leg_ns / 1e3, 2)
        .cell(leg_ns / static_cast<double>(st.messages), 2);
  };
  row("multi-bfs", stats, ns);
  row("convergecast", up_stats, up_ns);
  row("broadcast", down_stats, down_ns);
  t.print(ctx.out(), "micro: scheduled multi-BFS and tree legs");
  ctx.metric("n", static_cast<std::uint64_t>(g.num_vertices()));
  ctx.metric("m", static_cast<std::uint64_t>(g.num_edges()));
  ctx.metric("instances", static_cast<std::uint64_t>(specs.size()));
  ctx.metric("rounds", static_cast<std::uint64_t>(stats.rounds));
  ctx.metric("messages", stats.messages);
  ctx.metric("ns_per_message", ns_per_message);
  ctx.metric("up_rounds", static_cast<std::uint64_t>(up_stats.rounds));
  ctx.metric("up_messages", up_stats.messages);
  ctx.metric("ns_per_message_up", ns_up);
  ctx.metric("down_rounds", static_cast<std::uint64_t>(down_stats.rounds));
  ctx.metric("down_messages", down_stats.messages);
  ctx.metric("ns_per_message_down", ns_down);
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
