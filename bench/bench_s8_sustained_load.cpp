// S8 — steady-state streaming admission under sustained open-loop load,
// with per-tenant QoS and proactive artifact prewarming (PR 9).
//
// Three tenants (gold/silver/bronze, descending token-bucket budgets) push
// an open-loop arrival stream through a StreamingService at offered loads
// of several multiples of the per-wave admission capacity: every wave, the
// schedule submits mult x capacity queries round-robin across the tenants,
// then pumps one drain wave; after the arrival phase the backlog drains to
// empty.  Recorded per load leg (suffix _x<mult>): wall time, served qps,
// waves, queue-depth p99 over the wave records, and per tenant p50/p99
// execution latency plus the shed rate.  The meaning of the curves is
// guarded by inline determinism gates: (a) every served query bit-identical
// to idle one-at-a-time execution, (b) the recorded arrival/wave schedule
// re-folds to the byte-identical shed set (determinism contract point 9),
// (c) the top leg reproduces verdicts and digests at 1/2/8 threads, and
// (d) the cheap class is never starved — every wave grants it
// min(cheap_slots, cheap backlog) slots.  A single-tenant leg gives one
// tenant a burst of at least the batch size, so nothing is rate-limited and
// admission is the plain bounded per-class wave scheduler: a heavy-skewed
// batch runs cold, then hot against the materialized artifacts (suffix
// _solo; cache_hit_rate_hot is the artifact-cache hit rate of the hot
// pass), and through a service with the artifact cache off — all three
// must serve identical digests.  A prewarm contrast leg measures cold vs
// pool-prewarmed first-query latency over fresh snapshots (bit-identical
// digests, zero warm-path partition misses).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/registry.hpp"
#include "bench/timer.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "service/streaming.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using lcs::Stats;
using lcs::service::ArrivalVerdict;
using lcs::service::GraphSnapshot;
using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;
using lcs::service::StreamingOptions;
using lcs::service::StreamingService;
using lcs::service::TenantConfig;
using lcs::service::TokenBucketConfig;

constexpr const char* kTenantNames[3] = {"gold", "silver", "bronze"};
constexpr const char* kSoloTenant = "solo";

/// Descending QoS tiers.  Against capacity 6/wave and a round-robin stream
/// whose per-tenant share is half cheap / half heavy, gold sustains nearly
/// everything, silver sheds under deep overload, bronze sheds early — the
/// per-tenant shed-rate curves are the point of the scenario.
StreamingOptions tier_options() {
  StreamingOptions opt;
  opt.drain_thread = false;  // manual pump: the schedule is the benchmark
  opt.max_queue = 4096;      // the sweep saturates budgets, not the bound
  opt.cheap_slots = 4;
  opt.heavy_slots = 2;
  opt.tenants = {
      TenantConfig{kTenantNames[0], TokenBucketConfig{16, 3000}, TokenBucketConfig{8, 1000}},
      TenantConfig{kTenantNames[1], TokenBucketConfig{8, 2000}, TokenBucketConfig{4, 500}},
      TenantConfig{kTenantNames[2], TokenBucketConfig{4, 1000}, TokenBucketConfig{2, 250}},
  };
  return opt;
}

/// One tenant whose burst covers `batch_size` arrivals of either class, so
/// no arrival is rate-limited: admission reduces to the bounded queue and
/// the strict per-class wave slots of tier_options().
StreamingOptions solo_options(std::uint32_t batch_size) {
  StreamingOptions opt = tier_options();
  opt.tenants = {TenantConfig{kSoloTenant, TokenBucketConfig{batch_size, 0},
                              TokenBucketConfig{batch_size, 0}}};
  return opt;
}

/// The i-th query of a leg: default-shaped (num_parts = 0, the prewarmed
/// partition pool) with alternating cheap/heavy kinds.
QueryRequest leg_query(std::uint64_t id) {
  QueryRequest q;
  q.id = id;
  switch (id % 4) {
    case 0: q.kind = QueryKind::kShortcutQuality; break;
    case 1: q.kind = QueryKind::kMincut; break;
    case 2: q.kind = QueryKind::kShortcutBuild; break;
    default: q.kind = QueryKind::kMst; break;
  }
  q.beta = (id % 3 == 0) ? 0.5 : 1.0;
  q.karger_trials = (id % 8 == 1) ? 8 : 0;
  q.eps = 0.5;
  return q;
}

double p(const Stats& s, double q) { return s.empty() ? 0.0 : s.percentile(q); }

/// One admitted submission of a leg, remembered for wait()/oracle replay.
struct Admitted {
  std::size_t tenant = 0;
  QueryRequest req;
  StreamingService::Ticket ticket;
};

/// Everything one leg run produces.
struct LegRun {
  std::vector<ArrivalVerdict> verdicts;
  std::vector<lcs::service::ScheduleEvent> schedule;
  std::vector<lcs::service::WaveRecord> waves;
  std::vector<lcs::service::TenantStats> tenants;
  std::vector<std::pair<QueryRequest, QueryResult>> served;  // submission order
  double wall_ms = 0.0;
};

/// Drive one open-loop leg: `waves` arrival rounds of mult x capacity
/// submissions round-robin across tenants, a drain wave after each round,
/// then drain the backlog.  Fixed schedule, so every run of the same leg
/// (any thread count) must reproduce the identical outcome.
LegRun run_leg(const ShortcutService& svc, const StreamingOptions& opt, std::uint32_t mult,
               std::uint32_t waves, std::uint64_t id_base) {
  const std::uint32_t capacity = opt.cheap_slots + opt.heavy_slots;
  StreamingService stream(svc, opt);
  std::vector<Admitted> admitted;
  lcs::bench::MonotonicTimer timer;
  std::uint64_t next_id = id_base;
  for (std::uint32_t w = 0; w < waves; ++w) {
    for (std::uint32_t i = 0; i < mult * capacity; ++i) {
      const std::size_t tenant = (next_id - id_base) % 3;
      const QueryRequest q = leg_query(next_id++);
      StreamingService::Ticket t = stream.submit(kTenantNames[tenant], q);
      if (t.admitted()) admitted.push_back(Admitted{tenant, q, std::move(t)});
    }
    stream.drain_wave();
  }
  stream.drain_until_idle();
  LegRun out;
  out.served.reserve(admitted.size());
  for (const Admitted& a : admitted) out.served.emplace_back(a.req, stream.wait(a.ticket));
  out.wall_ms = timer.elapsed_ms();
  out.verdicts = stream.verdicts();
  out.schedule = stream.schedule();
  out.waves = stream.wave_records();
  out.tenants = stream.tenant_stats();
  return out;
}

/// Submit a whole batch for the single tenant, then drain it: served
/// results in batch order (a shed arrival would surface as an ok=false
/// result).
LegRun run_solo(const ShortcutService& svc, const StreamingOptions& opt,
                const std::vector<QueryRequest>& batch) {
  StreamingService stream(svc, opt);
  std::vector<StreamingService::Ticket> tickets;
  tickets.reserve(batch.size());
  lcs::bench::MonotonicTimer timer;
  for (const QueryRequest& q : batch) tickets.push_back(stream.submit(kSoloTenant, q));
  stream.drain_until_idle();
  LegRun out;
  out.served.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    out.served.emplace_back(batch[i],
                            tickets[i].admitted() ? stream.wait(tickets[i]) : QueryResult{});
  out.wall_ms = timer.elapsed_ms();
  out.waves = stream.wave_records();
  return out;
}

bool same_digests(const LegRun& a, const LegRun& b) {
  if (a.served.size() != b.served.size()) return false;
  for (std::size_t i = 0; i < a.served.size(); ++i)
    if (a.served[i].second.digest() != b.served[i].second.digest()) return false;
  return true;
}

}  // namespace

LCS_BENCH_SCENARIO(S8_sustained_load,
                   "steady-state streaming admission with per-tenant QoS + prewarming",
                   "open-loop arrivals in {1,4,8}x wave capacity x 3 QoS tiers") {
  using namespace lcs;

  const std::uint32_t n = ctx.pick_n(300, 1200);
  const std::uint64_t seed = ctx.seed(88);

  Rng gen(seed);
  graph::Graph g = graph::connected_gnm(n, 3 * n, gen);
  service::GraphSnapshot::Options sopt;
  sopt.weight_seed = seed ^ 0x99ULL;
  sopt.max_weight = 12;
  sopt.max_cached_partitions = 256;
  sopt.max_cached_samples = 256;
  const auto snapshot = GraphSnapshot::build(std::move(g), sopt);
  const ShortcutService svc(snapshot, seed);

  const StreamingOptions opt = tier_options();
  const std::uint32_t waves_per_leg = ctx.smoke() ? 6 : 20;
  ctx.param("cheap_slots", std::uint64_t{opt.cheap_slots});
  ctx.param("heavy_slots", std::uint64_t{opt.heavy_slots});
  ctx.param("waves_per_leg", std::uint64_t{waves_per_leg});
  {
    Json names = Json::array();
    for (const char* name : kTenantNames) names.push_back(std::string(name));
    ctx.param("tenants", std::move(names));
  }
  const std::vector<std::uint32_t> multiples = ctx.smoke()
                                                   ? std::vector<std::uint32_t>{1, 2, 4}
                                                   : std::vector<std::uint32_t>{1, 4, 8};
  {
    Json arr = Json::array();
    for (const std::uint32_t m : multiples) arr.push_back(std::uint64_t{m});
    ctx.param("offered_multiples", std::move(arr));
  }

  ThreadOverrideGuard guard;
  set_num_threads(4);

  Table t({"load", "arrivals", "served", "waves", "wall_ms", "qps", "depth_p99", "shed_gold",
           "shed_silver", "shed_bronze"});
  // Structural no-starvation: every wave granted the cheap class its full
  // entitlement min(cheap_slots, cheap backlog) — heavy load can only add
  // heavy waves, never displace a cheap grant.
  const auto cheap_fully_granted = [&opt](const LegRun& leg) {
    for (const service::WaveRecord& w : leg.waves) {
      const std::uint64_t entitled =
          std::min<std::uint64_t>(opt.cheap_slots, w.cheap_pending_before);
      if (w.cheap_granted != entitled) return false;
    }
    return true;
  };
  bool all_served_ok = true;
  bool cheap_never_starved = true;
  bool shed_replay_identical = true;
  LegRun top;  // the largest offered load, reused by the cross-checks

  for (const std::uint32_t mult : multiples) {
    const LegRun leg = run_leg(svc, opt, mult, waves_per_leg, 100000ull * mult);

    // Contract point 9, live: the journal re-folds to the identical shed set.
    shed_replay_identical =
        shed_replay_identical && leg.verdicts == service::replay_shed_schedule(opt, leg.schedule);

    cheap_never_starved = cheap_never_starved && cheap_fully_granted(leg);

    Stats depth;
    for (const service::WaveRecord& w : leg.waves)
      depth.add(static_cast<double>(w.queue_depth_after));
    Stats lat[3], queue_wait[3];
    for (const auto& [req, res] : leg.served) {
      all_served_ok = all_served_ok && res.ok;
      const std::size_t tenant = req.id % 3;  // the round-robin assignment
      lat[tenant].add(res.latency_ms);
      queue_wait[tenant].add(res.queue_ms);
    }
    const double qps = leg.wall_ms > 1e-6
                           ? 1000.0 * static_cast<double>(leg.served.size()) / leg.wall_ms
                           : 0.0;

    // Lvalue on purpose: gcc 12's -Wrestrict false-fires on the
    // operator+(const char*, std::string&&) inlining path under -O2.
    const std::string mult_str = std::to_string(mult);
    const std::string suffix = "_x" + mult_str;
    ctx.metric("wall_ms" + suffix, leg.wall_ms);
    ctx.metric("qps" + suffix, qps);
    ctx.metric("waves" + suffix, std::uint64_t{leg.waves.size()});
    ctx.metric("queue_depth_p99" + suffix, p(depth, 99.0));
    double shed_rate[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < 3; ++i) {
      const service::TenantCounters& c = leg.tenants[i].counters;
      const std::uint64_t shed = c.shed_queue_full + c.shed_rate_limited;
      shed_rate[i] =
          c.arrivals == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(c.arrivals);
      const std::string key = suffix + "_" + leg.tenants[i].name;
      ctx.metric("latency_p50_ms" + key, p(lat[i], 50.0));
      ctx.metric("latency_p99_ms" + key, p(lat[i], 99.0));
      ctx.metric("queue_p99_ms" + key, p(queue_wait[i], 99.0));
      ctx.metric("shed_rate" + key, shed_rate[i]);
    }

    t.row()
        .cell("x" + mult_str)
        .cell(std::uint64_t{leg.verdicts.size()})
        .cell(std::uint64_t{leg.served.size()})
        .cell(std::uint64_t{leg.waves.size()})
        .cell(leg.wall_ms, 1)
        .cell(qps, 1)
        .cell(p(depth, 99.0), 1)
        .cell(shed_rate[0], 2)
        .cell(shed_rate[1], 2)
        .cell(shed_rate[2], 2);

    if (mult == multiples.back()) top = leg;
  }

  // Cross-check (a): overload vs idle — every query the saturated stream
  // served must carry the bytes idle one-at-a-time execution produces.
  bool overload_vs_idle = true;
  for (const auto& [req, res] : top.served)
    overload_vs_idle = overload_vs_idle && svc.run(req).digest() == res.digest();

  // Cross-check (c): the top leg's fixed schedule reproduces the identical
  // verdicts and served digests at 1/2/8 threads.
  bool across_threads = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const LegRun rerun =
        run_leg(svc, opt, multiples.back(), waves_per_leg, 100000ull * multiples.back());
    across_threads = across_threads && rerun.verdicts == top.verdicts && same_digests(rerun, top);
  }
  set_num_threads(4);

  // Single-tenant leg: a cold pass over fresh query ids, a hot re-run of
  // the same batch against the artifacts the cold pass materialized, and
  // the same batch through a service that computes every artifact
  // privately.  Content must not depend on any of it.
  const std::uint32_t solo_count = multiples.back() * (opt.cheap_slots + opt.heavy_slots);
  ctx.param("solo_queries", std::uint64_t{solo_count});
  const StreamingOptions solo = solo_options(solo_count);
  std::vector<QueryRequest> solo_batch;
  for (std::uint32_t i = 0; i < solo_count; ++i) solo_batch.push_back(leg_query(700000 + i));
  const LegRun cold = run_solo(svc, solo, solo_batch);
  const service::ArtifactStats hot_before = snapshot->artifact_stats();
  const LegRun hot = run_solo(svc, solo, solo_batch);
  const service::ArtifactStats hot_after = snapshot->artifact_stats();
  const std::uint64_t hot_lookups = hot_after.total().lookups() - hot_before.total().lookups();
  const std::uint64_t hot_hits = hot_after.total().hits - hot_before.total().hits;
  const double cache_hit_rate_hot =
      hot_lookups == 0 ? 0.0
                       : static_cast<double>(hot_hits) / static_cast<double>(hot_lookups);
  const ShortcutService uncached(snapshot, seed,
                                 ShortcutService::Options{/*use_artifact_cache=*/false});
  const LegRun uncached_run = run_solo(uncached, solo, solo_batch);
  const bool hot_vs_cold = same_digests(hot, cold);
  const bool cached_vs_uncached = same_digests(uncached_run, cold);
  cheap_never_starved = cheap_never_starved && cheap_fully_granted(cold);
  Stats solo_cheap, solo_heavy;
  for (const auto& [req, res] : cold.served) {
    all_served_ok = all_served_ok && res.ok;
    overload_vs_idle = overload_vs_idle && svc.run(req).digest() == res.digest();
    (service::query_cost_class(req) == service::CostClass::kCheap ? solo_cheap : solo_heavy)
        .add(res.latency_ms);
  }
  ctx.metric("wall_ms_solo", cold.wall_ms);
  ctx.metric("waves_solo", std::uint64_t{cold.waves.size()});
  ctx.metric("latency_p99_ms_cheap_solo", p(solo_cheap, 99.0));
  ctx.metric("latency_p99_ms_heavy_solo", p(solo_heavy, 99.0));
  ctx.metric("cache_hit_rate_hot", cache_hit_rate_hot);

  // Prewarm contrast: fresh snapshots over the identical graph, pool
  // prewarm on vs off.  The cost prewarming moves out of the serving path
  // is the first-touch materialization of each pool partition, so that is
  // what the headline metric times — partition(pool_seed(slot), k) per pool
  // slot, which is a memo hit on the warm snapshot and a compute on the
  // cold one.  Query-level digests over both snapshots guard that the
  // optimization is invisible to content.
  Rng regen(seed);
  graph::Graph g_warm = graph::connected_gnm(n, 3 * n, regen);
  Rng regen2(seed);
  graph::Graph g_cold = graph::connected_gnm(n, 3 * n, regen2);
  service::GraphSnapshot::Options cold_opt = sopt;
  cold_opt.prewarm_partition_pool = false;
  const auto warm_snap = GraphSnapshot::build(std::move(g_warm), sopt);
  const auto cold_snap = GraphSnapshot::build(std::move(g_cold), cold_opt);
  const std::uint32_t pool = sopt.partition_pool_size;
  const std::uint32_t pool_parts = warm_snap->default_part_count();
  Stats warm_fetch, cold_fetch;
  for (std::uint32_t slot = 0; slot < pool; ++slot) {
    const std::uint64_t pseed = GraphSnapshot::pool_seed(slot);
    bench::MonotonicTimer cold_t;
    (void)cold_snap->partition(pseed, pool_parts);
    cold_fetch.add(cold_t.elapsed_ms());
    bench::MonotonicTimer warm_t;
    (void)warm_snap->partition(pseed, pool_parts);
    warm_fetch.add(warm_t.elapsed_ms());
  }
  const ShortcutService warm_svc(warm_snap, seed);
  const ShortcutService cold_svc(cold_snap, seed);
  bool prewarm_on_vs_off = true;
  const service::ArtifactStats warm_before = warm_snap->artifact_stats();
  for (std::uint32_t i = 0; i < 12; ++i) {
    QueryRequest q;
    q.id = 900000 + i;
    q.kind = (i % 2 == 0) ? QueryKind::kShortcutQuality : QueryKind::kShortcutBuild;
    const QueryResult cold_res = cold_svc.run(q);
    const QueryResult warm_res = warm_svc.run(q);
    prewarm_on_vs_off = prewarm_on_vs_off && cold_res.digest() == warm_res.digest();
  }
  const service::ArtifactStats warm_after = warm_snap->artifact_stats();
  const bool prewarm_zero_warm_misses =
      warm_after.partition.misses == warm_before.partition.misses;
  const double cold_p99 = p(cold_fetch, 99.0);
  const double warm_p99 = p(warm_fetch, 99.0);
  ctx.metric("prewarm_cold_p99_ms", cold_p99);
  ctx.metric("prewarm_warm_p99_ms", warm_p99);
  ctx.metric("prewarm_speedup", warm_p99 > 1e-9 ? cold_p99 / warm_p99 : 0.0);

  t.print(ctx.out(), "S8: sustained streaming admission (3 QoS tiers, 4 threads)");
  ctx.out() << "\nsingle tenant: " << solo_count << " queries in " << cold.waves.size()
            << " waves, " << cold.wall_ms << " ms cold, hot hit rate " << cache_hit_rate_hot
            << "\n"
            << "\nnote: shed_* are per-tenant shed rates (arrivals never served);\n"
            << "depth_p99 is the post-wave queue depth; prewarm_{cold,warm}_p99_ms\n"
            << "time the first-touch pool-partition fetch on fresh snapshots.\n";

  ctx.metric("all_served_ok", all_served_ok);
  ctx.metric("cheap_never_starved", cheap_never_starved);
  ctx.metric("shed_replay_identical", shed_replay_identical);
  ctx.metric("deterministic_overload_vs_idle", overload_vs_idle);
  ctx.metric("deterministic_across_threads", across_threads);
  ctx.metric("deterministic_hot_vs_cold", hot_vs_cold);
  ctx.metric("deterministic_cached_vs_uncached", cached_vs_uncached);
  ctx.metric("deterministic_prewarm_on_vs_off", prewarm_on_vs_off);
  ctx.metric("prewarm_zero_warm_misses", prewarm_zero_warm_misses);
}
