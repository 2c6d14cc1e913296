// mix_gnm: closed loop, one client, fixed seeded batches through
// ShortcutService::run_batch on connected_gnm(300, 900).
//
// Every batch has the same composition (40 queries: 24 shortcut builds,
// 6 quality measurements, 4 MSTs, 2 Karger and 4 sparsified mincuts), so
// batch wall times are comparable and their median is a steady throughput
// estimate.  One shortcut query in every other batch carries an explicit
// num_parts and misses the prewarmed partition pool; the rest hit it.  At
// the benchmark's run length those misses plus the 8 pool entries stay under
// the partition memo's 64-entry capacity, so the memo never flushes and the
// hit/miss counts repeat exactly for a seed.  A traced run also runs the
// streaming admission probe (admission.cpp).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "core/kp.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "mst/mst.hpp"
#include "service/service.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

using lcs::Rng;
using lcs::service::GraphSnapshot;
using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;

constexpr std::uint32_t kN = 300;
/// The graph is a constant of the workload (its diameter, and with it the
/// KP parameters, would otherwise change query cost from seed to seed); the
/// seed drives the query stream and the service's RNG streams.
constexpr std::uint64_t kGraphSeed = 0x6d69785f676e6dULL;
/// One pool thread: batch tasks run inline, so throughput does not swing
/// with how many cores the host happens to grant the run.
constexpr unsigned kThreads = 1;
constexpr double kBatchesPerSecond = 1.8;
constexpr unsigned kSetupReps = 25;
constexpr std::uint64_t kVerifyEvery = 8;   ///< share of queries re-run uncached
constexpr std::uint64_t kRedriveEvery = 4;  ///< share of queries re-driven when tracing
constexpr double kSloMs = 160.0;            ///< per-query latency limit, about twice the p99
constexpr std::uint32_t kKargerTrials = 16;
constexpr std::uint32_t kExplicitParts = 12;

struct Pass {
  std::vector<double> batch_ms;
  std::vector<QueryResult> results;  ///< in query-list order
  lcs::service::ArtifactStats artifacts_before, artifacts_after;
  double cpu_s = 0.0, wall_s = 0.0;
};

/// Batch b holds the same queries whatever the seed — kinds, betas (rotating
/// through three values per kind), eps values and the pool-missing query —
/// so seeds differ only in query order and in the service's RNG streams.
std::vector<std::vector<QueryRequest>> make_batches(std::uint64_t seed, unsigned batches) {
  Rng rng(lcs::hash64(seed ^ 0xa11ce));
  std::vector<std::vector<QueryRequest>> out(batches);
  std::uint64_t next_id = 1;
  const double betas[] = {0.75, 1.0, 1.25};
  const double epses[] = {0.4, 0.5};
  for (unsigned b = 0; b < batches; ++b) {
    std::vector<QueryRequest>& batch = out[b];
    auto add = [&](QueryKind kind, unsigned count) {
      for (unsigned i = 0; i < count; ++i) {
        QueryRequest q;
        q.kind = kind;
        q.beta = betas[(i + b) % 3];
        batch.push_back(q);
      }
    };
    add(QueryKind::kShortcutBuild, 24);
    add(QueryKind::kShortcutQuality, 6);
    add(QueryKind::kMst, 4);
    add(QueryKind::kMincut, 6);
    // Mincuts: the first two run Karger, the other four the sparsified estimator.
    unsigned mincuts = 0;
    for (QueryRequest& q : batch) {
      if (q.kind != QueryKind::kMincut) continue;
      if (mincuts < 2) q.karger_trials = kKargerTrials;
      else q.eps = epses[mincuts % 2];
      ++mincuts;
    }
    // One pool-missing shortcut query every other batch, alternating kinds.
    if (b % 2 == 0) {
      const QueryKind miss_kind =
          b % 4 == 0 ? QueryKind::kShortcutBuild : QueryKind::kShortcutQuality;
      for (QueryRequest& q : batch)
        if (q.kind == miss_kind) {
          q.num_parts = kExplicitParts;
          break;
        }
    }
    rng.shuffle(batch);
    for (QueryRequest& q : batch) q.id = next_id++;
  }
  return out;
}

struct Redrive {
  std::vector<double> quality_ms, build_ms, boruvka_ms, sparsify_ms, skeleton_ms, karger_ms;
  std::vector<double> overhead_ms;
  std::uint64_t shortcut_edges = 0, mst_rounds = 0, mst_messages = 0, mismatches = 0;
};

/// Re-drive one query through the layers' public APIs with the service's
/// own draws (see service.cpp), timing each layer call, and check that the
/// re-driven answer equals the service's.
void redrive(const GraphSnapshot& snap, const ShortcutService& svc, const QueryRequest& q,
             const QueryResult& served, Tracer& tr, Redrive& acc) {
  // The re-driven calls are sibling spans sharing the query's request id.
  auto r0 = Clock::now();
  const QueryResult again = svc.run(q);
  auto r1 = Clock::now();
  tr.record("service", "ShortcutService::run", q.id, r0, r1);
  double layers_ms = 0.0;
  auto timed = [&](const char* layer, const char* name, auto&& fn) {
    auto t0 = Clock::now();
    auto value = fn();
    auto t1 = Clock::now();
    tr.record(layer, name, q.id, t0, t1);
    layers_ms += ms_between(t0, t1);
    return std::make_pair(value, ms_between(t0, t1));
  };

  Rng stream = Rng(svc.seed()).split(q.id);
  const auto& g = snap.graph();
  auto diameter = [&]() -> std::optional<unsigned> {
    if (q.diameter) return q.diameter;
    if (snap.connected()) return snap.diameter_estimate();
    return std::nullopt;
  };
  auto partition = [&]() {
    std::uint32_t parts = q.num_parts;
    std::uint64_t part_seed = 0;
    const std::uint32_t pool = snap.options().partition_pool_size;
    if (parts == 0 && pool > 0) {
      part_seed = GraphSnapshot::pool_seed(stream() % pool);
      parts = snap.default_part_count();
    } else {
      if (parts == 0)
        parts = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(std::lround(std::sqrt(double(snap.num_vertices())))));
      parts = std::min(parts, snap.num_vertices());
      part_seed = stream();
    }
    return timed("artifact", "GraphSnapshot::partition",
                 [&] { return snap.partition(part_seed, parts); })
        .first;
  };

  bool match = true;
  switch (q.kind) {
    case QueryKind::kShortcutQuality: {
      lcs::core::KpOptions opt;
      opt.beta = q.beta;
      opt.seed = stream();
      opt.diameter = diameter();
      const auto parts = partition();
      const auto [rep, ms] = timed("core", "measure_kp_quality", [&] {
        return lcs::core::measure_kp_quality(g, *parts, opt, {});
      });
      acc.quality_ms.push_back(ms);
      acc.shortcut_edges += rep.total_shortcut_edges;
      match = rep.quality.quality() == served.value && rep.num_large == served.cardinality;
      break;
    }
    case QueryKind::kShortcutBuild: {
      lcs::core::KpOptions opt;
      opt.beta = q.beta;
      opt.seed = stream();
      opt.diameter = diameter();
      const auto parts = partition();
      const auto [built, ms] = timed("core", "build_kp_shortcuts", [&] {
        return lcs::core::build_kp_shortcuts(g, *parts, opt);
      });
      acc.build_ms.push_back(ms);
      std::uint64_t edges = 0;
      for (const auto& h : built.shortcuts.h) edges += h.size();
      acc.shortcut_edges += edges;
      match = edges == served.value && built.num_large == served.cardinality;
      break;
    }
    case QueryKind::kMst: {
      lcs::mst::BoruvkaOptions opt;
      opt.beta = q.beta;
      opt.seed = stream();
      opt.diameter = diameter();
      const auto [res, ms] = timed("mst", "boruvka_mst", [&] {
        return lcs::mst::boruvka_mst(g, snap.weights(), opt);
      });
      acc.boruvka_ms.push_back(ms);
      acc.mst_rounds += res.total_rounds();
      acc.mst_messages += res.messages;
      match = static_cast<std::uint64_t>(res.mst.weight) == served.value &&
              res.total_rounds() == served.rounds;
      break;
    }
    case QueryKind::kMincut: {
      Rng local(stream());
      if (q.karger_trials > 0) {
        const auto [cut, ms] = timed("mincut", "karger_mincut", [&] {
          return lcs::mincut::karger_mincut(g, snap.weights(), q.karger_trials, local);
        });
        acc.karger_ms.push_back(ms);
        match = static_cast<std::uint64_t>(cut.value) == served.value;
      } else {
        const std::uint64_t sample_seed = local();
        const auto [sample, ms1] = timed("mincut", "sparsify_edges", [&] {
          return lcs::mincut::sparsify_edges(g, snap.weights(), q.eps, sample_seed);
        });
        const auto [sp, ms2] = timed("mincut", "sparsified_mincut_on_sample", [&] {
          return lcs::mincut::sparsified_mincut_on_sample(g, snap.weights(), sample);
        });
        acc.sparsify_ms.push_back(ms1);
        acc.skeleton_ms.push_back(ms2);
        match = static_cast<std::uint64_t>(sp.cut.value) == served.value;
      }
      break;
    }
    case QueryKind::kPointToPoint: throw std::logic_error("mix_gnm issues no s-t queries");
  }
  acc.overhead_ms.push_back(ms_between(r0, r1) - layers_ms);
  if (!match || again.digest() != served.digest()) ++acc.mismatches;
}

Pass run_pass(const std::shared_ptr<const GraphSnapshot>& snap, const ShortcutService& svc,
              const std::vector<std::vector<QueryRequest>>& batches, std::uint64_t seed,
              Tracer& tr, Redrive* redrive_acc) {
  Pass p;
  p.artifacts_before = snap->artifact_stats();
  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    next_cpu();
    const auto t0 = Clock::now();
    std::vector<QueryResult> res = svc.run_batch(batches[b]);
    const auto t1 = Clock::now();
    tr.record("service", "ShortcutService::run_batch", b, t0, t1);
    p.batch_ms.push_back(ms_between(t0, t1));
    if (redrive_acc != nullptr)
      for (std::size_t i = 0; i < res.size(); ++i)
        if (picked(seed, batches[b][i].id, kRedriveEvery, 0x7e))
          redrive(*snap, svc, batches[b][i], res[i], tr, *redrive_acc);
    for (QueryResult& r : res) p.results.push_back(std::move(r));
  }
  p.wall_s = ms_between(wall0, Clock::now()) / 1000.0;
  p.cpu_s = cpu_seconds() - cpu0;
  p.artifacts_after = snap->artifact_stats();
  return p;
}

/// `bad[i]` marks query i as failed (not ok, or wrong answer).
EndToEnd end_to_end(const Pass& p, const std::vector<QueryRequest>& queries,
                    std::size_t batch_size, const std::vector<char>& bad) {
  std::vector<double> all, cheap, heavy;
  std::uint64_t ok = 0, within = 0;
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    const QueryResult& r = p.results[i];
    if (bad[i]) continue;
    ++ok;
    if (r.latency_ms <= kSloMs) ++within;
    all.push_back(r.latency_ms);
    (lcs::service::query_cost_class(queries[i]) == lcs::service::CostClass::kCheap ? cheap
                                                                                  : heavy)
        .push_back(r.latency_ms);
  }
  require_tail_samples("mix_gnm latency_p99_ms", all.size(), 0.99);
  require_tail_samples("mix_gnm cheap_latency_p99_ms", cheap.size(), 0.99);
  const double n = static_cast<double>(p.results.size());
  EndToEnd e{};
  e.qps = static_cast<double>(batch_size) * (static_cast<double>(ok) / n) /
          (median(p.batch_ms) / 1000.0);
  e.p50 = median(all);
  e.p99 = quantile(all, 0.99);
  e.cheap_p99 = quantile(cheap, 0.99);
  e.heavy_p50 = median(heavy);
  e.ok_share = static_cast<double>(ok) / n;
  e.slo_met_share = static_cast<double>(within) / n;
  return e;
}

}  // namespace

Report run_mix_gnm(const Config& cfg) {
  lcs::set_num_threads(kThreads);
  Report rep;
  rep.info["threads"] = kThreads;
  rep.info["n"] = kN;
  Tracer tr(cfg.trace);
  Tracer off(false);

  Rng gen(kGraphSeed);
  const lcs::graph::Graph g = lcs::graph::connected_gnm(kN, 3 * kN, gen);

  std::vector<double> setup_ms, build_ms, warm_ms;
  WarmSnapshot s;
  for (unsigned i = 0; i < kSetupReps; ++i) {
    next_cpu();
    s = build_warm_snapshot(g, i + 1 == kSetupReps ? tr : off);
    setup_ms.push_back(s.build_ms + s.warm_ms);
    build_ms.push_back(s.build_ms);
    warm_ms.push_back(s.warm_ms);
  }
  const std::uint64_t service_seed = lcs::hash64(cfg.seed ^ 0x5e7);
  const auto batches = make_batches(
      cfg.seed, static_cast<unsigned>(std::lround(kBatchesPerSecond * cfg.seconds)));
  std::vector<QueryRequest> queries;
  for (const auto& b : batches) queries.insert(queries.end(), b.begin(), b.end());
  rep.info["diameter"] = s.snap->diameter_estimate();
  rep.info["batches"] = static_cast<double>(batches.size());
  rep.info["queries"] = static_cast<double>(queries.size());

  const ShortcutService svc(s.snap, service_seed);
  const Pass pass = run_pass(s.snap, svc, batches, cfg.seed, off, nullptr);

  // Correctness gate: a seeded sample against the uncached reference path.
  ShortcutService::Options uncached;
  uncached.use_artifact_cache = false;
  const ShortcutService ref(s.snap, service_seed, uncached);
  std::uint64_t failed = 0, checked = 0;
  std::vector<char> bad(queries.size(), 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = pass.results[i];
    bad[i] = !r.ok;
    if (!bad[i] && picked(cfg.seed, queries[i].id, kVerifyEvery, 0xc4)) {
      ++checked;
      bad[i] = ref.run(queries[i]).digest() != r.digest();
    }
    if (bad[i]) {
      ++failed;
      rep.fail("query " + std::to_string(queries[i].id) +
               (r.ok ? " digest differs from the uncached service" : " failed: " + r.error));
    }
  }
  rep.attempted = queries.size();
  rep.failed = failed;
  rep.info["verified"] = static_cast<double>(checked);

  const EndToEnd e = end_to_end(pass, queries, batches.front().size(), bad);
  rep.info["cpu_per_wall"] = pass.cpu_s / pass.wall_s;
  if (!cfg.trace) {
    set_end_to_end(rep, e, setup_ms);
    return rep;
  }

  // Traced run: the same inputs again on a fresh snapshot (so cache state
  // matches the untraced pass), with spans and per-query re-drives.
  const WarmSnapshot s2 = build_warm_snapshot(g, off);
  const ShortcutService svc2(s2.snap, service_seed);
  Redrive acc;
  const Pass traced = run_pass(s2.snap, svc2, batches, cfg.seed, tr, &acc);
  std::vector<char> traced_bad(queries.size(), 0);
  for (std::size_t i = 0; i < queries.size(); ++i) traced_bad[i] = !traced.results[i].ok;
  std::uint64_t traced_failed = acc.mismatches;
  for (const char b : traced_bad) traced_failed += b ? 1 : 0;
  if (acc.mismatches > 0)
    rep.fail(std::to_string(acc.mismatches) + " re-driven queries disagree with the service");
  rep.failed += traced_failed;
  rep.attempted += queries.size();
  const EndToEnd te = end_to_end(traced, queries, batches.front().size(), traced_bad);

  const auto& a0 = pass.artifacts_before.partition;
  const auto& a1 = pass.artifacts_after.partition;
  const double lookups = static_cast<double>(a1.lookups() - a0.lookups());
  rep.set("snapshot.build_ms", median(build_ms));
  rep.set("snapshot.pool_warm_ms", median(warm_ms));
  rep.set("artifact.partition_hit_ratio",
          lookups > 0 ? static_cast<double>(a1.hits - a0.hits) / lookups : 0.0);
  rep.set("artifact.partition_misses", static_cast<double>(a1.misses - a0.misses));
  rep.set("artifact.sparsified_misses",
          static_cast<double>(pass.artifacts_after.sparsified.misses -
                              pass.artifacts_before.sparsified.misses));
  rep.info["artifact.partition_bypasses"] = static_cast<double>(a1.bypasses - a0.bypasses);
  rep.info["artifact.partition_evictions"] = static_cast<double>(a1.evictions - a0.evictions);
  rep.set("kp.quality_ms_p50", median(acc.quality_ms));
  rep.set("kp.build_ms_p50", median(acc.build_ms));
  rep.set("kp.shortcut_edges", static_cast<double>(acc.shortcut_edges));
  rep.set("mst.boruvka_ms_p50", median(acc.boruvka_ms));
  rep.set("mst.rounds", static_cast<double>(acc.mst_rounds));
  rep.set("mst.messages", static_cast<double>(acc.mst_messages));
  rep.set("mincut.sparsify_ms_p50", median(acc.sparsify_ms));
  rep.set("mincut.skeleton_cut_ms_p50", median(acc.skeleton_ms));
  rep.set("mincut.karger_ms_p50", median(acc.karger_ms));
  rep.set("service.overhead_ms_p50", median(acc.overhead_ms));
  rep.set("process.cpu_per_wall", pass.cpu_s / pass.wall_s);
  measure_admission(cfg, tr, rep);
  finish_trace(cfg, tr, e, te, rep);
  return rep;
}

}  // namespace perfbench
