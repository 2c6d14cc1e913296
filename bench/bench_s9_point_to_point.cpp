// S9 — point-to-point routing: contraction hierarchies vs the plain
// bidirectional-Dijkstra oracle.
//
// Leg 1 (engines): road networks of increasing size.  Per n, two exact s–t
// engines answer the same query set over the same weights — plain
// bidirectional Dijkstra (the oracle) and a contraction-hierarchy query
// over the preprocessed up-arc DAG.  Recorded per n: CH preprocessing time,
// per-engine p50/p99 query latency and per-engine median settled count.
// Each engine keeps one search scratch across the query loop, as a serving
// shard does, so the race times searches rather than allocations.
// Gates: both engines return the identical distance on every query
// (`all_engines_agree`) and CH p99 beats plain Dijkstra p99 at the largest
// n (`ch_p99_beats_dijkstra`) — the hierarchy must pay for its
// preprocessing.
//
// Leg 2 (service gates): an all-kPointToPoint batch against a snapshot runs
// through every serving surface — threads 1/2/8, mmap-loaded vs built
// snapshot (the CH artifact rides the file), a 2-shard router vs the local
// service, and streaming admission vs a direct batch.  All digests must be
// bit-identical: determinism-contract points 7–9 for the new kind.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "service/service.hpp"
#include "service/sharded.hpp"
#include "service/snapshot_format.hpp"
#include "service/snapshot_store.hpp"
#include "service/streaming.hpp"
#include "sssp/ch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;

std::vector<QueryRequest> pp_batch(std::uint32_t n, std::uint32_t count,
                                   std::uint64_t first_id) {
  lcs::Rng pick(first_id ^ 0x5097ULL);
  std::vector<QueryRequest> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    QueryRequest q;
    q.id = first_id + i;
    q.kind = QueryKind::kPointToPoint;
    q.s = static_cast<std::uint32_t>(pick.uniform(n));
    q.t = static_cast<std::uint32_t>(pick.uniform(n));
    batch.push_back(q);
  }
  return batch;
}

std::vector<std::uint64_t> digests(const std::vector<QueryResult>& rs) {
  std::vector<std::uint64_t> d;
  d.reserve(rs.size());
  for (const auto& r : rs) d.push_back(r.digest());
  return d;
}

}  // namespace

LCS_BENCH_SCENARIO(S9_point_to_point,
                   "point-to-point routing: contraction hierarchies vs bidirectional Dijkstra",
                   "road networks, two exact engines + serving-surface digest gates") {
  using namespace lcs;

  const std::uint64_t seed = ctx.seed(91);
  const std::vector<std::uint32_t> sizes =
      ctx.n_sweep({4'000}, {20'000, 100'000});
  const std::uint32_t queries = ctx.smoke() ? 50 : 200;
  ctx.param("queries_per_n", std::uint64_t{queries});

  ThreadOverrideGuard guard;
  set_num_threads(4);

  // --- leg 1: two exact engines over road networks ------------------------
  bool all_engines_agree = true;
  bool ch_p99_beats_dijkstra = false;  // judged at the largest n
  Table t({"n", "ch_build_ms", "dijkstra_p99", "ch_p99", "agree"});
  for (const std::uint32_t n : sizes) {
    Rng gen(seed ^ n);
    const graph::Graph g = graph::road_network(n, gen);
    Rng wrng(seed ^ n ^ 0x77ULL);
    const graph::EdgeWeights w = graph::random_weights(g, 16, wrng);

    bench::MonotonicTimer t_ch;
    const sssp::ChIndex ch = sssp::build_ch(g, w);
    const double ch_build_ms = t_ch.elapsed_ms();

    Rng qrng(seed ^ n ^ 0x22ULL);
    sssp::PointToPointScratch scratch_dij, scratch_ch;
    Stats lat_dij, lat_ch, settled_dij, settled_ch;
    bool agree = true;
    for (std::uint32_t q = 0; q < queries; ++q) {
      const auto s = static_cast<graph::VertexId>(qrng.uniform(n));
      const auto dst = static_cast<graph::VertexId>(qrng.uniform(n));

      bench::MonotonicTimer t0;
      const sssp::PointToPointResult a = sssp::bidirectional_dijkstra(g, w, s, dst, scratch_dij);
      lat_dij.add(t0.elapsed_ms());

      bench::MonotonicTimer t1;
      const sssp::PointToPointResult b = sssp::ch_query(ch, s, dst, scratch_ch);
      lat_ch.add(t1.elapsed_ms());

      settled_dij.add(static_cast<double>(a.settled));
      settled_ch.add(static_cast<double>(b.settled));
      agree = agree && a.distance == b.distance;
    }
    all_engines_agree = all_engines_agree && agree;
    if (n == sizes.back())
      ch_p99_beats_dijkstra = lat_ch.percentile(99.0) < lat_dij.percentile(99.0);

    t.row()
        .cell(std::uint64_t{n})
        .cell(ch_build_ms, 1)
        .cell(lat_dij.percentile(99.0), 4)
        .cell(lat_ch.percentile(99.0), 4)
        .cell(agree ? std::uint64_t{1} : std::uint64_t{0});

    const std::string suffix = "_n" + std::to_string(n);
    ctx.metric("ch_build_ms" + suffix, ch_build_ms);
    ctx.metric("dijkstra_p50_ms" + suffix, lat_dij.percentile(50.0));
    ctx.metric("dijkstra_p99_ms" + suffix, lat_dij.percentile(99.0));
    ctx.metric("ch_p50_ms" + suffix, lat_ch.percentile(50.0));
    ctx.metric("ch_p99_ms" + suffix, lat_ch.percentile(99.0));
    ctx.metric("ch_settled_p50" + suffix, settled_ch.percentile(50.0));
    ctx.metric("dijkstra_settled_p50" + suffix, settled_dij.percentile(50.0));
  }
  t.print(ctx.out(), "S9 leg 1: two exact s-t engines per road-network size");

  // --- leg 2: serving-surface digest gates --------------------------------
  const std::uint32_t gate_n = ctx.smoke() ? 1'500 : 4'000;
  Rng gate_gen(seed ^ 0x6e9ULL);
  service::GraphSnapshot::Options sopt;
  sopt.weight_seed = seed ^ 0x5109ULL;
  const auto built =
      service::GraphSnapshot::build(graph::road_network(gate_n, gate_gen), sopt);
  const auto batch = pp_batch(gate_n, 24, 91'000);
  const service::ShortcutService local(built, seed);

  set_num_threads(1);
  const std::vector<QueryResult> reference_results = local.run_batch(batch);
  bool all_ok = true;
  for (const QueryResult& r : reference_results) all_ok = all_ok && r.ok;
  const std::vector<std::uint64_t> reference = digests(reference_results);

  // Threads 1/2/8 (contract point: thread-count independence).
  bool across_threads = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    across_threads = across_threads && digests(local.run_batch(batch)) == reference;
  }

  // Loaded vs built: the CH artifact rides the snapshot file.
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "lcs-bench-s9-store";
  std::filesystem::remove_all(store_dir);
  bool loaded_vs_built = true;
  {
    service::SnapshotStore store(store_dir);
    (void)built->ch_index();  // materialize so save() carries the artifact
    const std::filesystem::path path = store.save(*built);
    loaded_vs_built = service::read_snapshot_info(path).saved_ch_indexes == 1;
    const auto loaded = store.open(built->fingerprint());
    const service::ShortcutService loaded_svc(loaded, seed);
    for (const unsigned threads : {1u, 2u, 8u}) {
      set_num_threads(threads);
      loaded_vs_built =
          loaded_vs_built && digests(loaded_svc.run_batch(batch)) == reference;
    }
    loaded_vs_built = loaded_vs_built && loaded->artifact_stats().ch.misses == 0;
  }
  std::filesystem::remove_all(store_dir);

  // Sharded vs local (contract point 7: placement independence).
  bool sharded_vs_local = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    std::vector<std::unique_ptr<service::ShardBackend>> backends;
    for (int s = 0; s < 2; ++s)
      backends.push_back(std::make_unique<service::LocalShard>(
          std::make_shared<const service::ShortcutService>(built, seed)));
    const service::ShardRouter router(std::move(backends));
    sharded_vs_local =
        sharded_vs_local && digests(router.run_batch(batch)) == reference;
  }

  // Streaming admission vs direct batch (contract point 9).
  bool streaming_vs_direct = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    service::StreamingOptions opt;
    opt.drain_thread = false;
    opt.cheap_slots = 4;
    opt.heavy_slots = 1;
    opt.tenants = {service::TenantConfig{
        "bench", service::TokenBucketConfig{64, 100'000},
        service::TokenBucketConfig{8, 100'000}}};
    service::StreamingService stream(service::ShortcutService(built, seed), opt);
    std::vector<service::StreamingService::Ticket> tickets;
    for (const QueryRequest& q : batch) {
      service::StreamingService::Ticket ticket = stream.submit("bench", q);
      streaming_vs_direct = streaming_vs_direct && ticket.admitted();
      tickets.push_back(std::move(ticket));
    }
    stream.drain_until_idle();
    for (std::size_t i = 0; i < batch.size() && streaming_vs_direct; ++i)
      streaming_vs_direct = stream.wait(tickets[i]).digest() == reference[i];
  }

  ctx.out() << "\nS9 leg 2 gates at n=" << gate_n << ": threads "
            << (across_threads ? "ok" : "MISMATCH") << ", loaded "
            << (loaded_vs_built ? "ok" : "MISMATCH") << ", sharded "
            << (sharded_vs_local ? "ok" : "MISMATCH") << ", streaming "
            << (streaming_vs_direct ? "ok" : "MISMATCH") << "\n";

  ctx.metric("all_engines_agree", all_engines_agree);
  ctx.metric("all_queries_ok", all_ok);
  ctx.metric("ch_p99_beats_dijkstra", ch_p99_beats_dijkstra);
  ctx.metric("deterministic_across_threads", across_threads);
  ctx.metric("deterministic_loaded_vs_built", loaded_vs_built);
  ctx.metric("deterministic_sharded_vs_local", sharded_vs_local);
  ctx.metric("deterministic_streaming_vs_direct", streaming_vs_direct);
}
