// S1 — thread scaling of the deterministic parallel runtime.
//
// One hard instance; the two parallelized hot paths (KP sampling,
// measure_quality) are timed at 1/2/4/8 threads.  Every leg also
// cross-checks its result against the 1-thread reference — the recorded
// speedup curve is only meaningful because the outputs are bit-identical,
// which this scenario asserts inline (the full property fleet lives in
// tests/test_parallel_determinism.cpp).
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "core/kp.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

LCS_BENCH_SCENARIO(S1_thread_scaling,
                   "parallel runtime speedup with bit-identical outputs",
                   "threads in {1,2,4,8} x {kp_build, measure_quality} on D=4") {
  using namespace lcs;

  const std::uint32_t n = ctx.pick_n(5000, 100000);
  const std::uint64_t seed = ctx.seed(29);
  const graph::HardInstance hi = graph::hard_instance(n, 4);
  core::KpOptions opt;
  opt.diameter = 4;
  opt.seed = seed;

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  {
    Json arr = Json::array();
    for (const unsigned t : thread_counts) arr.push_back(std::uint64_t{t});
    ctx.param("threads", std::move(arr));
  }
  ctx.param("hardware_threads", std::uint64_t{std::max(1u, std::thread::hardware_concurrency())});

  ThreadOverrideGuard guard;
  Table t({"threads", "kp_build_ms", "quality_ms", "identical"});

  core::KpBuildResult reference;      // 1-thread outputs, the determinism baseline
  core::QualityReport reference_q;
  std::vector<double> kp_ms, quality_ms;
  bool all_identical = true;

  for (const unsigned threads : thread_counts) {
    set_num_threads(threads);

    bench::MonotonicTimer timer;
    core::KpBuildResult built = core::build_kp_shortcuts(hi.g, hi.paths, opt);
    kp_ms.push_back(timer.elapsed_ms());

    timer.reset();
    const core::QualityReport q = core::measure_quality(hi.g, hi.paths, built.shortcuts, {});
    quality_ms.push_back(timer.elapsed_ms());

    bool identical = true;
    if (threads == thread_counts.front()) {
      reference = std::move(built);
      reference_q = q;
    } else {
      identical = built.shortcuts.h == reference.shortcuts.h &&
                  q.congestion == reference_q.congestion &&
                  q.dilation_lb == reference_q.dilation_lb &&
                  q.dilation_ub == reference_q.dilation_ub &&
                  q.all_covered == reference_q.all_covered;
      all_identical = all_identical && identical;
    }

    t.row()
        .cell(std::uint64_t{threads})
        .cell(kp_ms.back(), 1)
        .cell(quality_ms.back(), 1)
        .cell(identical ? std::uint64_t{1} : std::uint64_t{0});

    ctx.metric("wall_ms_kp_build_t" + std::to_string(threads), kp_ms.back());
    ctx.metric("wall_ms_quality_t" + std::to_string(threads), quality_ms.back());
  }

  t.print(ctx.out(), "S1: thread scaling (hard instance, D=4)");
  ctx.out() << "\nnote: speedups are meaningful only up to the machine's core count;\n"
            << "the identical column is the determinism cross-check vs 1 thread.\n";

  // Guard against division by a sub-resolution timing on tiny smoke runs.
  const auto speedup = [](double base, double now) { return now > 1e-6 ? base / now : 0.0; };
  for (std::size_t i = 1; i < thread_counts.size(); ++i) {
    const std::string suffix = "_t" + std::to_string(thread_counts[i]);
    ctx.metric("speedup_kp_build" + suffix, speedup(kp_ms.front(), kp_ms[i]));
    ctx.metric("speedup_quality" + suffix, speedup(quality_ms.front(), quality_ms[i]));
  }
  ctx.metric("deterministic_across_threads", all_identical);
}
