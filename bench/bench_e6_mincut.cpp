// E6 — Corollary 1.2 (min cut): the tree-packing approximation against the
// exact Stoer–Wagner referee.  The paper's (1+eps) machinery (2-respecting
// cuts) is substituted by 1-respecting cuts (DESIGN.md §4): the *measured*
// ratio is reported; rounds are #trees × one shortcut-MST invocation.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/registry.hpp"
#include "util/json.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

LCS_BENCH_SCENARIO(e6_mincut, "(1+eps)-approx min cut via tree packing (Cor 1.2)",
                   "layered n in {64,128,256} + heavy n in {96,192} + hard n in {300,400}") {
  using namespace lcs;

  Table t({"family", "n", "m", "exact", "packing", "ratio", "trees",
           "sparsified(eps=.5)", "p_sample", "karger"});
  Rng rng(3);
  double worst_ratio = 1.0;
  // The exact Stoer-Wagner referee is O(n m log n), and the heavy and hard
  // families are dense: clamp --n so a global sweep (e.g. `--all --n 4096`)
  // cannot silently turn this scenario into a long run.  Each family records
  // its own (post-clamp) sweep, so the JSON params report the sizes actually
  // run.
  constexpr std::uint32_t kMaxExactN = 512;
  const auto family_sweep = [&ctx](const char* name, std::vector<std::uint32_t> smoke,
                                   std::vector<std::uint32_t> full) {
    std::vector<std::uint32_t> ns = ctx.n_sweep(std::move(smoke), std::move(full), name);
    Json effective = Json::array();
    for (auto& n : ns) {
      if (n > kMaxExactN) {
        ctx.out() << "(n=" << n << " clamped to " << kMaxExactN
                  << ": exact referee is O(n m log n))\n";
        n = kMaxExactN;
      }
      effective.push_back(std::uint64_t{n});
    }
    ctx.param(name, std::move(effective));
    return ns;
  };
  for (const std::uint32_t n : family_sweep("n_layered", {64}, {64, 128, 256})) {
    const graph::Graph g = graph::layered_random_graph(n, 4, 2.0, rng);
    const graph::EdgeWeights w = graph::random_weights(g, 10, rng);
    const auto exact = mincut::stoer_wagner(g, w);
    const auto tp = mincut::tree_packing_mincut(g, w);
    Rng krng(n);
    const auto karger = mincut::karger_mincut(g, w, 200, krng);
    Rng sprng(n + 1);
    const auto sp = mincut::sparsified_mincut(g, w, 0.5, sprng);
    worst_ratio = std::max(worst_ratio, double(tp.cut.value) / double(exact.value));
    t.row()
        .cell("layered-D4")
        .cell(g.num_vertices())
        .cell(g.num_edges())
        .cell(static_cast<std::int64_t>(exact.value))
        .cell(static_cast<std::int64_t>(tp.cut.value))
        .cell(double(tp.cut.value) / double(exact.value), 3)
        .cell(tp.num_trees)
        .cell(static_cast<std::int64_t>(sp.cut.value))
        .cell(sp.sample_prob, 3)
        .cell(static_cast<std::int64_t>(karger.value));
  }
  // Heavy capacities push lambda high enough that the sampler actually
  // sparsifies (p < 1) — the regime Karger's theorem is about.
  for (const std::uint32_t n : family_sweep("n_heavy", {96}, {96, 192})) {
    const graph::Graph g = graph::layered_random_graph(n, 4, 3.0, rng);
    const graph::EdgeWeights w = graph::random_weights(g, 80, rng);
    const auto exact = mincut::stoer_wagner(g, w);
    const auto tp = mincut::tree_packing_mincut(g, w);
    Rng sprng(n + 3);
    const auto sp = mincut::sparsified_mincut(g, w, 0.5, sprng);
    worst_ratio = std::max(worst_ratio, double(tp.cut.value) / double(exact.value));
    t.row()
        .cell("layered-heavy")
        .cell(g.num_vertices())
        .cell(g.num_edges())
        .cell(static_cast<std::int64_t>(exact.value))
        .cell(static_cast<std::int64_t>(tp.cut.value))
        .cell(double(tp.cut.value) / double(exact.value), 3)
        .cell(tp.num_trees)
        .cell(static_cast<std::int64_t>(sp.cut.value))
        .cell(sp.sample_prob, 3)
        .cell("-");
  }
  for (const std::uint32_t n : family_sweep("n_hard", {300}, {300, 400})) {
    const graph::HardInstance hi = graph::hard_instance(n, 4);
    const graph::EdgeWeights w(hi.g.num_edges(), 1);
    const auto exact = mincut::stoer_wagner(hi.g, w);
    const auto tp = mincut::tree_packing_mincut(hi.g, w);
    Rng sprng(n + 2);
    const auto sp = mincut::sparsified_mincut(hi.g, w, 0.5, sprng);
    worst_ratio = std::max(worst_ratio, double(tp.cut.value) / double(exact.value));
    t.row()
        .cell("hard-D4")
        .cell(hi.g.num_vertices())
        .cell(hi.g.num_edges())
        .cell(static_cast<std::int64_t>(exact.value))
        .cell(static_cast<std::int64_t>(tp.cut.value))
        .cell(double(tp.cut.value) / double(exact.value), 3)
        .cell(tp.num_trees)
        .cell(static_cast<std::int64_t>(sp.cut.value))
        .cell(sp.sample_prob, 3)
        .cell("-");
  }
  t.print(ctx.out(), "E6: min-cut approximation quality");
  ctx.out() << "\nround complexity: trees x MST rounds (see E5).  The packing\n"
               "ratio is ~1.0 (guarantee <= 2 with 1-respecting cuts); the\n"
               "sparsified column is Karger's (1+eps) sampling mechanism —\n"
               "together they bracket the paper's cited (1+eps) machinery.\n";
  ctx.metric("worst_packing_ratio", worst_ratio);
  ctx.metric("rows", std::uint64_t{t.rows()});
}
