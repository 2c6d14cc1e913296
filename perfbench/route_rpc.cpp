// route_rpc: closed loop, one client, fixed batches of kPointToPoint
// queries on road_network(20000) through a 2-shard ShardRouter over unix
// sockets.  Each ShardServer serves a ShortcutService over the snapshot
// saved and mmap-loaded through SnapshotStore, so setup exercises the
// snapshot layer's write side (CH build, save, load) and queries its read
// side.
//
// Every batch is shard-local: trip ids are chosen so that all trips of
// batch b hash to shard b % 2.  The router still scatters and gathers, and
// both shards serve half the batches, but only one shard thread works at a
// time, so the workload needs one core rather than three and its timings do
// not swing with how many cores the host grants the run.
//
// Every batch has the same composition: 256 trips, of which every 16th is
// a long trip (uniform s, t) and the rest short trips (t a short random walk
// away from s).  Batch wall times are then sums of many alike trips, so
// their median and tail are steady.  Short trips are the workload's cheap
// request class and long trips its heavy class; their class latencies are
// per trip, the shard's own execution time, as on mix_gnm.  Latency over
// all requests is per routed batch, from the client's send to its gather.
// Its median (latency_p50_ms, qps) is wall time, as the client sees it.  Its
// tail (latency_p99_ms, slo_met_share) is the CPU time lcsperf spends in
// that span: client, router and both shards run in this one process on one
// CPU and wait for nothing outside it, so on a quiet host the two are equal,
// but when other processes share the CPU their time slices land in the tail
// of wall time, not in its median.
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "graph/generators.hpp"
#include "rpc/shard.hpp"
#include "service/sharded.hpp"
#include "service/snapshot_store.hpp"
#include "service/wire.hpp"
#include "sssp/ch.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

using lcs::Rng;
using lcs::service::GraphSnapshot;
using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;

constexpr std::uint32_t kN = 20000;
constexpr std::uint64_t kGraphSeed = 0x726f7574655f7270ULL;  ///< the road graph is fixed
/// One pool thread: a shard serves its batch inline on its connection thread.
constexpr unsigned kThreads = 1;
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 256;       ///< trips per batch
constexpr std::size_t kLongEvery = 16;    ///< every 16th trip of a batch is long
constexpr unsigned kBatchesPerSecond = 160;
constexpr std::size_t kBatchesPerCpu = kBatchesPerSecond;  ///< next_cpu() once a second
constexpr unsigned kSetupReps = 5;
constexpr unsigned kShortWalk = 24;          ///< random-walk steps from s to a short trip's t
constexpr std::uint64_t kDijkstraEvery = 97;   ///< share of trips checked by Dijkstra
constexpr std::uint64_t kLocalEvery = 13;      ///< share checked against in-process run()
constexpr std::uint64_t kRedriveEvery = 4;     ///< share of batches re-driven when tracing
constexpr std::uint64_t kQueryRedriveEvery = 8;
constexpr double kSloMs = 16.0;  ///< per-batch CPU-time limit, about twice the p99
/// Tail percentiles are taken relative to the median of blocks of this many
/// consecutive batches (about 0.2 s), so the host's speed changing from one
/// second to the next does not decide the tail (drift_corrected_quantile).
constexpr std::size_t kBlockBatches = 32;

/// The serving fleet of one setup: two in-process shard servers behind a
/// router, plus one direct client per shard for the traced re-drive.
struct Fleet {
  std::shared_ptr<const GraphSnapshot> built, loaded;
  std::vector<std::unique_ptr<lcs::rpc::ShardServer>> servers;
  std::unique_ptr<lcs::service::ShardRouter> router;
  std::vector<std::unique_ptr<lcs::rpc::RpcShard>> probes;
  std::filesystem::path dir;  ///< sockets and the snapshot store; removed with the fleet
  double build_ms = 0, ch_ms = 0, save_ms = 0, load_ms = 0, file_mb = 0, total_ms = 0;
  std::uint64_t ch_shortcuts = 0;

  ~Fleet() {
    probes.clear();
    router.reset();
    for (auto& s : servers) s->stop();
    servers.clear();
    loaded.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<Fleet> set_up(const lcs::graph::Graph& g, std::uint64_t service_seed,
                              const std::filesystem::path& dir, Tracer& tr) {
  auto f = std::make_unique<Fleet>();
  f->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  lcs::graph::Graph copy = g;
  const auto t0 = Clock::now();
  f->built = GraphSnapshot::build(std::move(copy));
  const auto t1 = Clock::now();
  f->ch_shortcuts = f->built->ch_index()->num_shortcuts;
  const auto t2 = Clock::now();
  lcs::service::SnapshotStore store(dir / "store");
  const std::filesystem::path file = store.save(*f->built);
  const auto t3 = Clock::now();
  f->loaded = store.open(f->built->fingerprint());
  const auto t4 = Clock::now();
  auto svc = std::make_shared<const ShortcutService>(f->loaded, service_seed);
  std::vector<std::unique_ptr<lcs::service::ShardBackend>> backends;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::filesystem::path sock = dir / ("shard" + std::to_string(i) + ".sock");
    const auto ep = lcs::rpc::Endpoint::parse("unix:" + sock.string());
    f->servers.push_back(std::make_unique<lcs::rpc::ShardServer>(svc, ep));
    backends.push_back(std::make_unique<lcs::rpc::RpcShard>(f->servers.back()->endpoint()));
  }
  f->router = std::make_unique<lcs::service::ShardRouter>(std::move(backends));
  const auto t5 = Clock::now();
  for (std::size_t i = 0; i < kShards; ++i)
    f->probes.push_back(std::make_unique<lcs::rpc::RpcShard>(f->servers[i]->endpoint()));

  tr.record("snapshot", "GraphSnapshot::build", 0, t0, t1);
  tr.record("sssp", "build_ch", 0, t1, t2);
  tr.record("snapshot_format", "SnapshotStore::save", 0, t2, t3);
  tr.record("snapshot_format", "SnapshotStore::open", 0, t3, t4);
  tr.record("rpc", "ShardServer+ShardRouter attach", 0, t4, t5);
  f->build_ms = ms_between(t0, t1);
  f->ch_ms = ms_between(t1, t2);
  f->save_ms = ms_between(t2, t3);
  f->load_ms = ms_between(t3, t4);
  f->total_ms = ms_between(t0, t5);
  f->file_mb = static_cast<double>(std::filesystem::file_size(file)) / (1024.0 * 1024.0);
  return f;
}

bool is_long(std::size_t k) { return k % kLongEvery == kLongEvery - 1; }

std::vector<std::vector<QueryRequest>> make_batches(const lcs::graph::Graph& g,
                                                    std::uint64_t seed, unsigned batches) {
  Rng rng(lcs::hash64(seed ^ 0x70a7));
  std::vector<std::vector<QueryRequest>> out(batches);
  std::uint64_t next_id = 1;
  for (std::size_t b = 0; b < out.size(); ++b) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      QueryRequest q;
      do q.id = next_id++;
      while (lcs::service::shard_of(q.id, kShards) != b % kShards);
      q.kind = QueryKind::kPointToPoint;
      q.s = static_cast<std::uint32_t>(rng.uniform(g.num_vertices()));
      if (is_long(i)) {
        q.t = static_cast<std::uint32_t>(rng.uniform(g.num_vertices()));
      } else {
        std::uint32_t v = q.s;
        for (unsigned step = 0; step < kShortWalk; ++step) {
          const auto nb = g.neighbors(v);
          v = nb[rng.uniform(nb.size())].to;
        }
        q.t = v;
      }
      out[b].push_back(q);
    }
  }
  return out;
}

/// What the gate needs of one routed answer, kept compact so lcsperf's
/// own bookkeeping stays small next to the fleet's memory.
struct Answer {
  std::uint64_t digest = 0;
  std::uint64_t distance = 0;
  std::uint32_t attempts = 0;
  float latency_ms = 0.0f;  ///< the shard's own execution time of the trip
  bool ok = false;
};

struct Pass {
  std::vector<double> wall_ms;  ///< wall time per routed batch
  std::vector<double> cpu_ms;   ///< CPU time of the process in the same spans
  std::vector<std::vector<Answer>> results;
  std::vector<std::string> errors;  ///< texts of failed answers
  double cpu_s = 0.0, wall_s = 0.0;
};

struct Redrive {
  std::vector<double> encode_us, decode_us, rtt_ms, transport_ms, router_overhead_ms;
  std::vector<double> ch_query_us, settled;
  double bytes = 0.0;
  std::uint64_t batches = 0, mismatches = 0;
};

/// Re-drive one routed batch through the layers the router hides: wire
/// encoding, one round trip per shard on a direct RpcShard, result decoding,
/// and the CH query itself on a sample of its trips.
void redrive(const Fleet& f, const std::vector<QueryRequest>& batch,
             const std::vector<QueryResult>& routed, double router_ms, std::uint64_t b,
             std::uint64_t seed, Tracer& tr, Redrive& acc) {
  // The re-driven calls are sibling spans sharing the batch's request id.
  std::vector<std::vector<QueryRequest>> sub(kShards);
  for (const QueryRequest& q : batch) sub[lcs::service::shard_of(q.id, kShards)].push_back(q);
  double max_rtt = 0.0, encode_us = 0.0, decode_us = 0.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    if (sub[i].empty()) continue;
    auto t0 = Clock::now();
    const std::vector<std::byte> req = lcs::service::encode_requests(sub[i]);
    auto t1 = Clock::now();
    tr.record("wire", "encode_requests", b, t0, t1);
    encode_us += ms_between(t0, t1) * 1000.0;
    f.probes[i]->send_batch(sub[i]);
    std::vector<QueryResult> res = f.probes[i]->gather();
    auto t2 = Clock::now();
    tr.record("rpc", "RpcShard round trip", b, t1, t2);
    const std::vector<std::byte> bytes = lcs::service::encode_results(res);
    auto t3 = Clock::now();
    const std::vector<QueryResult> decoded =
        lcs::service::decode_results(bytes.data(), bytes.size());
    auto t4 = Clock::now();
    tr.record("wire", "decode_results", b, t3, t4);
    decode_us += ms_between(t3, t4) * 1000.0;
    double server_ms = 0.0;
    for (const QueryResult& r : res) server_ms += r.latency_ms;
    const double rtt = ms_between(t1, t2);
    acc.rtt_ms.push_back(rtt);
    acc.transport_ms.push_back(rtt - server_ms);
    max_rtt = std::max(max_rtt, rtt);
    acc.bytes += static_cast<double>(req.size() + bytes.size());
    for (std::size_t k = 0; k < res.size(); ++k)
      if (decoded[k].digest() != res[k].digest()) ++acc.mismatches;
  }
  acc.encode_us.push_back(encode_us);
  acc.decode_us.push_back(decode_us);
  acc.router_overhead_ms.push_back(router_ms - max_rtt);
  const lcs::sssp::ChIndex& ch = *f.loaded->ch_index();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (!picked(seed, batch[k].id, kQueryRedriveEvery, 0x55)) continue;
    auto t0 = Clock::now();
    const lcs::sssp::PointToPointResult p = lcs::sssp::ch_query(ch, batch[k].s, batch[k].t);
    auto t1 = Clock::now();
    tr.record("sssp", "ch_query", batch[k].id, t0, t1);
    acc.ch_query_us.push_back(ms_between(t0, t1) * 1000.0);
    acc.settled.push_back(static_cast<double>(p.settled));
    if (p.distance != routed[k].distance) ++acc.mismatches;
  }
  ++acc.batches;
}

Pass run_pass(const Fleet& f, const std::vector<std::vector<QueryRequest>>& batches,
              std::uint64_t seed, Tracer& tr, Redrive* acc) {
  Pass p;
  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (b % kBatchesPerCpu == 0) next_cpu();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<QueryResult> res = f.router->run_batch(batches[b]);
    const auto t1 = Clock::now();
    p.cpu_ms.push_back((cpu_seconds() - c0) * 1000.0);
    tr.record("router", "ShardRouter::run_batch", b, t0, t1);
    p.wall_ms.push_back(ms_between(t0, t1));
    if (acc != nullptr && picked(seed, b, kRedriveEvery, 0xba7))
      redrive(f, batches[b], res, ms_between(t0, t1), b, seed, tr, *acc);
    std::vector<Answer> answers(res.size());
    for (std::size_t k = 0; k < res.size(); ++k) {
      answers[k] = {res[k].digest(), res[k].distance, res[k].attempts,
                    static_cast<float>(res[k].latency_ms), res[k].ok};
      if (!res[k].ok) p.errors.push_back("trip " + std::to_string(res[k].id) + ": " + res[k].error);
    }
    p.results.push_back(std::move(answers));
  }
  p.wall_s = ms_between(wall0, Clock::now()) / 1000.0;
  p.cpu_s = cpu_seconds() - cpu0;
  return p;
}

/// `bad_batch[b]` marks batches holding a failed or wrong answer.
EndToEnd end_to_end(const Pass& p, const std::vector<char>& bad_batch, std::uint64_t ok_queries,
                    std::uint64_t queries) {
  std::vector<double> short_ms, long_ms;
  std::uint64_t within = 0;
  for (std::size_t b = 0; b < p.cpu_ms.size(); ++b) {
    for (std::size_t k = 0; k < p.results[b].size(); ++k)
      (is_long(k) ? long_ms : short_ms).push_back(p.results[b][k].latency_ms);
    if (!bad_batch[b] && p.cpu_ms[b] <= kSloMs) ++within;
  }
  const double ok_share = static_cast<double>(ok_queries) / static_cast<double>(queries);
  EndToEnd e{};
  e.qps = static_cast<double>(kBatch) * ok_share / (median(p.wall_ms) / 1000.0);
  e.p50 = median(p.wall_ms);
  e.p99 = drift_corrected_quantile("route_rpc latency_p99_ms", p.cpu_ms, kBlockBatches, 0.99);
  e.cheap_p99 = drift_corrected_quantile("route_rpc cheap_latency_p99_ms", std::move(short_ms),
                                         kBlockBatches * (kBatch - kBatch / kLongEvery), 0.99);
  e.heavy_p50 = median(long_ms);
  e.ok_share = ok_share;
  e.slo_met_share = static_cast<double>(within) / static_cast<double>(p.cpu_ms.size());
  return e;
}

}  // namespace

Report run_route_rpc(const Config& cfg) {
  lcs::set_num_threads(kThreads);
  Report rep;
  rep.info["threads"] = kThreads;
  rep.info["shards"] = kShards;
  rep.info["n"] = kN;
  Tracer tr(cfg.trace);
  Tracer off(false);

  Rng gen(kGraphSeed);
  const lcs::graph::Graph g = lcs::graph::road_network(kN, gen);
  const std::uint64_t service_seed = lcs::hash64(cfg.seed ^ 0x5e7);
  const std::filesystem::path dir = std::filesystem::path(cfg.work_dir) / "route_rpc";

  std::vector<double> setup_ms, build_ms, ch_ms, save_ms, load_ms;
  std::unique_ptr<Fleet> f;
  for (unsigned i = 0; i < kSetupReps; ++i) {
    next_cpu();
    f.reset();  // tear the previous fleet down before its directory is reused
    f = set_up(g, service_seed, dir, i + 1 == kSetupReps ? tr : off);
    setup_ms.push_back(f->total_ms);
    build_ms.push_back(f->build_ms);
    ch_ms.push_back(f->ch_ms);
    save_ms.push_back(f->save_ms);
    load_ms.push_back(f->load_ms);
  }

  const auto batches = make_batches(g, cfg.seed, kBatchesPerSecond * cfg.seconds);
  std::uint64_t queries = 0;
  for (const auto& b : batches) queries += b.size();
  rep.info["batches"] = static_cast<double>(batches.size());
  rep.info["queries"] = static_cast<double>(queries);
  const Pass pass = run_pass(*f, batches, cfg.seed, off, nullptr);

  // Correctness gate: every answer ok; sampled trips against bidirectional
  // Dijkstra on the graph, and against the in-process service on the built
  // (not loaded) snapshot.
  const ShortcutService local(f->built, service_seed);
  for (const std::string& e : pass.errors) rep.fail(e);
  std::vector<char> bad_batch(batches.size(), 0);
  std::uint64_t failed = 0, ok = 0, dijkstra = 0, local_checked = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t k = 0; k < batches[b].size(); ++k) {
      const QueryRequest& q = batches[b][k];
      const Answer& r = pass.results[b][k];
      std::string why = r.ok ? "" : "failed";
      if (why.empty() && picked(cfg.seed, q.id, kDijkstraEvery, 0xd1)) {
        ++dijkstra;
        if (lcs::sssp::bidirectional_dijkstra(g, f->built->weights(), q.s, q.t).distance !=
            r.distance)
          why = "distance differs from bidirectional Dijkstra";
      }
      if (why.empty() && picked(cfg.seed, q.id, kLocalEvery, 0x10c)) {
        ++local_checked;
        if (local.run(q).digest() != r.digest) why = "digest differs from in-process run()";
      }
      if (!why.empty()) {
        ++failed;
        bad_batch[b] = 1;
        rep.fail("trip " + std::to_string(q.id) + " " + why);
      } else {
        ++ok;
      }
    }
  }
  rep.attempted = queries;
  rep.failed = failed;
  rep.info["verified_dijkstra"] = static_cast<double>(dijkstra);
  rep.info["verified_local"] = static_cast<double>(local_checked);

  const EndToEnd e = end_to_end(pass, bad_batch, ok, queries);
  rep.info["cpu_per_wall"] = pass.cpu_s / pass.wall_s;
  rep.info["batch_cpu_p50_ms"] = median(pass.cpu_ms);
  rep.info["batch_wall_p99_ms"] = quantile(pass.wall_ms, 0.99);
  if (!cfg.trace) {
    set_end_to_end(rep, e, setup_ms);
    return rep;
  }

  Redrive acc;
  const Pass traced = run_pass(*f, batches, cfg.seed, tr, &acc);
  std::vector<char> traced_bad(batches.size(), 0);
  std::uint64_t traced_ok = 0, attempts = 0;
  for (std::size_t b = 0; b < batches.size(); ++b)
    for (const Answer& r : traced.results[b]) {
      attempts += r.attempts;
      if (r.ok) ++traced_ok;
      else traced_bad[b] = 1;
    }
  if (acc.mismatches > 0)
    rep.fail(std::to_string(acc.mismatches) + " re-driven answers disagree with the router");
  rep.attempted += queries;
  rep.failed += (queries - traced_ok) + acc.mismatches;
  const EndToEnd te = end_to_end(traced, traced_bad, traced_ok, queries);

  rep.set("snapshot.build_ms", median(build_ms));
  rep.set("sssp.ch_build_ms", median(ch_ms));
  rep.set("sssp.ch_shortcuts", static_cast<double>(f->ch_shortcuts));
  rep.set("snapshot_format.save_ms", median(save_ms));
  rep.set("snapshot_format.load_ms", median(load_ms));
  rep.set("snapshot_format.file_mb", f->file_mb);
  rep.set("sssp.ch_query_us_p50", median(acc.ch_query_us));
  rep.set("sssp.settled_nodes_p50", median(acc.settled));
  rep.set("wire.encode_us", median(acc.encode_us));
  rep.set("wire.decode_us", median(acc.decode_us));
  rep.set("wire.batch_bytes", acc.bytes / static_cast<double>(acc.batches));
  rep.set("rpc.round_trip_ms_p50", median(acc.rtt_ms));
  rep.set("rpc.transport_ms_p50", median(acc.transport_ms));
  rep.set("router.overhead_ms_p50", median(acc.router_overhead_ms));
  rep.set("router.attempts_per_query",
          static_cast<double>(attempts) / static_cast<double>(queries));
  rep.set("process.cpu_per_wall", pass.cpu_s / pass.wall_s);
  finish_trace(cfg, tr, e, te, rep);
  return rep;
}

}  // namespace perfbench
