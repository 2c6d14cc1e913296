// S3 — query-service throughput over one shared immutable snapshot (PR 4).
//
// The first scenario where throughput, not single-run latency, is the
// measured quantity: a mixed batch of independent queries (shortcut
// quality, shortcut build, MST, mincut) runs against one GraphSnapshot at
// 1/2/4/8 threads.  Recorded per leg: batch wall time, queries/sec, and
// p50/p99 per-query latency.  Three inline determinism cross-checks guard
// the curve's meaning — per-query digests must be bit-identical (a) across
// thread counts, (b) across batch submission orders, and (c) against
// running every query alone through ShortcutService::run().  The record
// also states the effective sampling probabilities on its graph
// (kp_sample_prob, mincut_sample_prob): at 1 the KP construction gives every
// large part all of G and the sparsified mincut is an exact Stoer–Wagner
// run, so the curve then measures that clamped regime, not the sampling.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "core/kp.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "service/service.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

/// The mixed workload: round-robin over the four kinds, with per-query
/// parameter jitter derived from the id so queries are not clones.
std::vector<lcs::service::QueryRequest> mixed_batch(std::uint32_t count) {
  using lcs::service::QueryKind;
  using lcs::service::QueryRequest;
  std::vector<QueryRequest> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    QueryRequest q;
    q.id = 1000 + i;
    switch (i % 4) {
      case 0: q.kind = QueryKind::kShortcutQuality; break;
      case 1: q.kind = QueryKind::kShortcutBuild; break;
      case 2: q.kind = QueryKind::kMst; break;
      default: q.kind = QueryKind::kMincut; break;
    }
    q.beta = (i % 3 == 0) ? 0.5 : 1.0;
    q.karger_trials = (i % 8 == 3) ? 12 : 0;  // alternate Karger / sparsified
    q.eps = 0.5;
    batch.push_back(q);
  }
  return batch;
}

std::vector<std::uint64_t> digests(const std::vector<lcs::service::QueryResult>& rs) {
  std::vector<std::uint64_t> d;
  d.reserve(rs.size());
  for (const auto& r : rs) d.push_back(r.digest());
  return d;
}

}  // namespace

LCS_BENCH_SCENARIO(S3_query_throughput,
                   "concurrent query-service throughput with bit-identical batches",
                   "threads in {1,2,4,8} x mixed {quality, build, mst, mincut} batch") {
  using namespace lcs;

  const std::uint32_t n = ctx.pick_n(300, 2000);
  const std::uint64_t seed = ctx.seed(57);
  const std::uint32_t batch_size = ctx.smoke() ? 16 : 64;
  ctx.param("batch_size", std::uint64_t{batch_size});

  Rng gen(seed);
  graph::Graph g = graph::connected_gnm(n, 3 * n, gen);
  service::GraphSnapshot::Options sopt;
  sopt.weight_seed = seed ^ 0x77ULL;
  sopt.max_weight = 12;
  const auto snapshot = service::GraphSnapshot::build(std::move(g), sopt);
  const service::ShortcutService svc(snapshot, seed);
  const std::vector<service::QueryRequest> batch = mixed_batch(batch_size);

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  {
    Json arr = Json::array();
    for (const unsigned t : thread_counts) arr.push_back(std::uint64_t{t});
    ctx.param("threads", std::move(arr));
  }
  ctx.param("hardware_threads",
            std::uint64_t{std::max(1u, std::thread::hardware_concurrency())});
  {
    // Effective p, from the pure functions (no artifact is touched before
    // the timed legs).  KP: the smallest p any query of the batch uses (its
    // lowest beta, at the snapshot's diameter estimate).  Mincut: the
    // batch's eps on this graph's lambda_hat.
    double min_beta = batch.front().beta;
    for (const service::QueryRequest& q : batch) min_beta = std::min(min_beta, q.beta);
    core::KpOptions kopt;
    kopt.beta = min_beta;
    kopt.diameter = snapshot->diameter_estimate();
    ctx.param("kp_sample_prob", core::kp_params(snapshot->graph(), kopt).sample_prob);
    const graph::Graph& sg = snapshot->graph();
    ctx.param("mincut_sample_prob", mincut::sparsify_sample_prob(sg, batch.front().eps, [&] {
                return mincut::sparsify_lambda_hat(sg, snapshot->weights());
              }));
  }

  ThreadOverrideGuard guard;
  Table t({"threads", "batch_ms", "qps", "p50_ms", "p99_ms", "ok", "identical"});

  std::vector<std::uint64_t> reference;  // 1-thread digests, determinism baseline
  std::vector<double> batch_ms;
  bool all_identical = true;
  bool all_ok = true;

  for (const unsigned threads : thread_counts) {
    set_num_threads(threads);

    bench::MonotonicTimer timer;
    const std::vector<service::QueryResult> results = svc.run_batch(batch);
    batch_ms.push_back(timer.elapsed_ms());

    Stats lat;
    bool ok = true;
    for (const auto& r : results) {
      lat.add(r.latency_ms);
      ok = ok && r.ok;
    }
    all_ok = all_ok && ok;
    const double qps = batch_ms.back() > 1e-6
                           ? 1000.0 * static_cast<double>(batch_size) / batch_ms.back()
                           : 0.0;

    bool identical = true;
    if (threads == thread_counts.front()) {
      reference = digests(results);
    } else {
      identical = digests(results) == reference;
      all_identical = all_identical && identical;
    }

    t.row()
        .cell(std::uint64_t{threads})
        .cell(batch_ms.back(), 1)
        .cell(qps, 1)
        .cell(lat.percentile(50.0), 2)
        .cell(lat.percentile(99.0), 2)
        .cell(ok ? std::uint64_t{1} : std::uint64_t{0})
        .cell(identical ? std::uint64_t{1} : std::uint64_t{0});

    const std::string suffix = "_t" + std::to_string(threads);
    ctx.metric("wall_ms_batch" + suffix, batch_ms.back());
    ctx.metric("qps" + suffix, qps);
    ctx.metric("latency_p50_ms" + suffix, lat.percentile(50.0));
    ctx.metric("latency_p99_ms" + suffix, lat.percentile(99.0));
  }

  // Cross-check (b): a permuted submission order must produce the same
  // per-id results — the service keys every query's randomness by id alone.
  std::vector<std::size_t> perm(batch.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng shuffle_rng(seed ^ 0x0badULL);
  shuffle_rng.shuffle(perm);
  std::vector<service::QueryRequest> shuffled;
  shuffled.reserve(batch.size());
  for (const std::size_t i : perm) shuffled.push_back(batch[i]);
  const std::vector<service::QueryResult> shuffled_results = svc.run_batch(shuffled);
  bool order_identical = true;
  for (std::size_t i = 0; i < perm.size(); ++i)
    order_identical = order_identical && shuffled_results[i].digest() == reference[perm[i]];

  // Cross-check (c): one query at a time through run() — the sequential
  // single-query execution the batch must match byte for byte.
  set_num_threads(thread_counts.front());
  bool sequential_identical = true;
  for (std::size_t i = 0; i < batch.size(); ++i)
    sequential_identical = sequential_identical && svc.run(batch[i]).digest() == reference[i];

  t.print(ctx.out(), "S3: query-service thread scaling (shared snapshot)");
  ctx.out() << "\nnote: qps is meaningful only up to the machine's core count; the\n"
            << "identical column is the per-query digest cross-check vs 1 thread.\n";

  const auto speedup = [](double base, double now) { return now > 1e-6 ? base / now : 0.0; };
  for (std::size_t i = 1; i < thread_counts.size(); ++i) {
    const std::string suffix = "_t" + std::to_string(thread_counts[i]);
    ctx.metric("speedup_batch" + suffix, speedup(batch_ms.front(), batch_ms[i]));
  }
  ctx.metric("all_queries_ok", all_ok);
  ctx.metric("deterministic_across_threads", all_identical);
  ctx.metric("deterministic_across_orders", order_identical);
  ctx.metric("deterministic_vs_sequential", sequential_identical);
}
