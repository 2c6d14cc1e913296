// S2 — wall time of the referee & application layer.
//
// Four referee paths are timed once per repetition on the caller's thread:
// Stoer–Wagner (heap-ordered, O(n m log n)), Karger contraction trials on
// counter-split RNG streams, shortcut-driven Boruvka (MWOE scan +
// multi-BFS/multi-tree CONGEST runs) and the exact diameter (64-source
// bit-parallel BFS blocks).  Run with `--reps 3` or more: the record's
// metric_stats then carry {min, median} of every wall_ms_<referee>.  The
// kernels are sequential, so the record has no thread grid.
#include <cstdint>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "mst/mst.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

LCS_BENCH_SCENARIO(S2_referee_scaling, "mincut/MST/exact-diameter referee wall time",
                   "{stoer_wagner, karger, boruvka, diameter}") {
  using namespace lcs;

  const std::uint32_t n = ctx.pick_n(240, 800);
  const std::uint64_t seed = ctx.seed(43);
  const std::uint32_t karger_trials = 48;
  ctx.param("karger_trials", std::uint64_t{karger_trials});

  Rng gen(seed);
  // The Stoer–Wagner instance stays at n/2 so records remain comparable
  // with those of the earlier dense O(n^3) kernel.  The diameter leg runs
  // all-pairs BFS, so it gets the largest graph (4n vertices).
  const std::uint32_t sw_n = n / 2;
  ctx.param("stoer_wagner_n", std::uint64_t{sw_n});
  const graph::Graph sw_g = graph::connected_gnm(sw_n, 3 * sw_n, gen);
  const graph::EdgeWeights sw_w = graph::random_weights(sw_g, 10, gen);
  const graph::Graph app_g = graph::connected_gnm(n, 3 * n, gen);
  const graph::EdgeWeights app_w = graph::random_weights(app_g, 12, gen);
  const std::uint32_t diam_n = 4 * n;
  ctx.param("diameter_n", std::uint64_t{diam_n});
  const graph::Graph diam_g = graph::connected_gnm(diam_n, 3 * diam_n, gen);

  bench::MonotonicTimer timer;
  const mincut::CutResult sw = mincut::stoer_wagner(sw_g, sw_w);
  const double sw_ms = timer.elapsed_ms();

  timer.reset();
  Rng krng(seed ^ 0x5eedULL);
  const mincut::CutResult karger = mincut::karger_mincut(app_g, app_w, karger_trials, krng);
  const double karger_ms = timer.elapsed_ms();

  timer.reset();
  mst::BoruvkaOptions bopt;
  bopt.seed = seed;
  const mst::BoruvkaResult boruvka = mst::boruvka_mst(app_g, app_w, bopt);
  const double boruvka_ms = timer.elapsed_ms();

  timer.reset();
  const std::uint32_t diameter = graph::diameter_exact(diam_g);
  const double diameter_ms = timer.elapsed_ms();

  Table t({"sw_ms", "karger_ms", "boruvka_ms", "diameter_ms"});
  t.row().cell(sw_ms, 1).cell(karger_ms, 1).cell(boruvka_ms, 1).cell(diameter_ms, 1);
  t.print(ctx.out(), "S2: referee & application wall time");

  ctx.metric("wall_ms_stoer_wagner", sw_ms);
  ctx.metric("wall_ms_karger", karger_ms);
  ctx.metric("wall_ms_boruvka", boruvka_ms);
  ctx.metric("wall_ms_diameter", diameter_ms);
  // The answers, so a record also shows what was computed.
  ctx.metric("stoer_wagner_cut", static_cast<std::uint64_t>(sw.value));
  ctx.metric("karger_cut", static_cast<std::uint64_t>(karger.value));
  ctx.metric("boruvka_mst_weight", static_cast<std::uint64_t>(boruvka.mst.weight));
  ctx.metric("diameter", std::uint64_t{diameter});
}
