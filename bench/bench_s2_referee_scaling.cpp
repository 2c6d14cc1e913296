// S2 — thread scaling of the referee & application layer (PR 3).
//
// Four referee paths are timed at 1/2/4/8 threads: Stoer–Wagner (the
// heap-ordered O(n m log n) form is sequential, so its curve is a ~1x
// reference), Karger contraction trials on counter-split RNG streams,
// shortcut-driven Boruvka (parallel MWOE scan + multi-BFS/multi-tree setup
// + simulator parallel delivery) and the exact diameter (64-source
// bit-parallel BFS blocks fanned out over the pool).  As in S1, every leg cross-checks its
// result against the 1-thread reference inline: the speedup curve is only
// meaningful because the outputs are bit-identical at every thread count.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "mst/mst.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

LCS_BENCH_SCENARIO(S2_referee_scaling,
                   "mincut/MST/exact-diameter referee speedup with bit-identical outputs",
                   "threads in {1,2,4,8} x {stoer_wagner, karger, boruvka, diameter}") {
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

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  {
    Json arr = Json::array();
    for (const unsigned t : thread_counts) arr.push_back(std::uint64_t{t});
    ctx.param("threads", std::move(arr));
  }
  ctx.param("hardware_threads",
            std::uint64_t{std::max(1u, std::thread::hardware_concurrency())});

  ThreadOverrideGuard guard;
  Table t({"threads", "sw_ms", "karger_ms", "boruvka_ms", "diameter_ms", "identical"});

  mincut::CutResult ref_sw, ref_karger;  // 1-thread outputs, determinism baseline
  mst::BoruvkaResult ref_boruvka;
  std::uint32_t ref_diameter = 0;
  std::vector<double> sw_ms, karger_ms, boruvka_ms, diameter_ms;
  bool all_identical = true;

  for (const unsigned threads : thread_counts) {
    set_num_threads(threads);

    bench::MonotonicTimer timer;
    const mincut::CutResult sw = mincut::stoer_wagner(sw_g, sw_w);
    sw_ms.push_back(timer.elapsed_ms());

    timer.reset();
    Rng krng(seed ^ 0x5eedULL);
    const mincut::CutResult karger = mincut::karger_mincut(app_g, app_w, karger_trials, krng);
    karger_ms.push_back(timer.elapsed_ms());

    timer.reset();
    mst::BoruvkaOptions bopt;
    bopt.seed = seed;
    const mst::BoruvkaResult boruvka = mst::boruvka_mst(app_g, app_w, bopt);
    boruvka_ms.push_back(timer.elapsed_ms());

    timer.reset();
    const std::uint32_t diameter = graph::diameter_exact(diam_g);
    diameter_ms.push_back(timer.elapsed_ms());

    bool identical = true;
    if (threads == thread_counts.front()) {
      ref_sw = sw;
      ref_karger = karger;
      ref_boruvka = boruvka;
      ref_diameter = diameter;
    } else {
      identical = sw.value == ref_sw.value && sw.side == ref_sw.side &&
                  karger.value == ref_karger.value && karger.side == ref_karger.side &&
                  boruvka.mst.edges == ref_boruvka.mst.edges &&
                  boruvka.mst.weight == ref_boruvka.mst.weight &&
                  boruvka.aggregation_rounds == ref_boruvka.aggregation_rounds &&
                  boruvka.messages == ref_boruvka.messages && diameter == ref_diameter;
      all_identical = all_identical && identical;
    }

    t.row()
        .cell(std::uint64_t{threads})
        .cell(sw_ms.back(), 1)
        .cell(karger_ms.back(), 1)
        .cell(boruvka_ms.back(), 1)
        .cell(diameter_ms.back(), 1)
        .cell(identical ? std::uint64_t{1} : std::uint64_t{0});

    ctx.metric("wall_ms_stoer_wagner_t" + std::to_string(threads), sw_ms.back());
    ctx.metric("wall_ms_karger_t" + std::to_string(threads), karger_ms.back());
    ctx.metric("wall_ms_boruvka_t" + std::to_string(threads), boruvka_ms.back());
    ctx.metric("wall_ms_diameter_t" + std::to_string(threads), diameter_ms.back());
  }

  t.print(ctx.out(), "S2: referee & application thread scaling");
  ctx.out() << "\nnote: speedups are meaningful only up to the machine's core count;\n"
            << "the identical column is the determinism cross-check vs 1 thread.\n";

  const auto speedup = [](double base, double now) { return now > 1e-6 ? base / now : 0.0; };
  for (std::size_t i = 1; i < thread_counts.size(); ++i) {
    const std::string suffix = "_t" + std::to_string(thread_counts[i]);
    ctx.metric("speedup_stoer_wagner" + suffix, speedup(sw_ms.front(), sw_ms[i]));
    ctx.metric("speedup_karger" + suffix, speedup(karger_ms.front(), karger_ms[i]));
    ctx.metric("speedup_boruvka" + suffix, speedup(boruvka_ms.front(), boruvka_ms[i]));
    ctx.metric("speedup_diameter" + suffix, speedup(diameter_ms.front(), diameter_ms[i]));
  }
  ctx.metric("deterministic_across_threads", all_identical);
}
