// Service stress/fuzz fleet (PR 5).
//
// Seeded random mixed batches — every query kind, random parameters, error
// injections, duplicate ids — are pushed through run_batch and through the
// admission path (a manual-pump, single-tenant StreamingService), and every
// outcome is checked against the sequential single-query oracle:
// ShortcutService::run at one thread.
// The contract under stress is the usual one: a QueryResult is a pure
// function of (snapshot, service seed, request), so no batch composition,
// admission schedule, saturation level or thread count may change a single
// deterministic field.  Registered at LCS_THREADS=1 and =4 under the
// `parallel` ctest label so the TSan leg covers the admission scheduler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/service.hpp"
#include "service/streaming.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using service::GraphSnapshot;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::ShortcutService;
using service::StreamingOptions;
using service::StreamingService;
using service::TenantConfig;
using service::TokenBucketConfig;

std::shared_ptr<const GraphSnapshot> fuzz_snapshot(std::uint64_t seed, std::uint32_t n = 200) {
  Rng gen(seed);
  GraphSnapshot::Options opt;
  opt.weight_seed = seed ^ 0xabcULL;
  opt.max_weight = 8;
  return GraphSnapshot::build(graph::connected_gnm(n, 3 * n, gen), opt);
}

/// Two disjoint paths: every mincut/MST query fails (deterministically).
std::shared_ptr<const GraphSnapshot> disconnected_snapshot() {
  graph::GraphBuilder b(16);
  for (graph::VertexId v = 0; v + 1 < 8; ++v) b.add_edge(v, v + 1);
  for (graph::VertexId v = 8; v + 1 < 16; ++v) b.add_edge(v, v + 1);
  return GraphSnapshot::build(std::move(b).build());
}

/// A seeded random batch over the full request surface: all four kinds,
/// random sizes/ids, and (when `inject_errors`) parameters chosen to throw
/// inside the query body — which must surface as deterministic ok=false
/// results, never as batch aborts.
std::vector<QueryRequest> fuzz_batch(Rng& rng, std::uint32_t count, std::uint32_t n,
                                     bool inject_errors) {
  const std::vector<std::uint64_t> ids = rng.sample_distinct(1u << 20, count);
  std::vector<QueryRequest> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    QueryRequest q;
    q.id = 7000 + ids[i];
    q.kind = static_cast<QueryKind>(rng.uniform(4));
    q.beta = 0.5 + 0.25 * static_cast<double>(rng.uniform(4));
    q.num_parts = static_cast<std::uint32_t>(rng.uniform(n / 2));  // 0 = auto
    if (rng.bernoulli(0.25))
      q.diameter = static_cast<unsigned>(1 + rng.uniform(6));
    q.karger_trials = rng.bernoulli(0.5) ? static_cast<std::uint32_t>(1 + rng.uniform(6)) : 0;
    q.eps = 0.3 + 0.2 * static_cast<double>(rng.uniform(3));
    batch.push_back(q);
  }
  if (inject_errors) {
    // Guaranteed failures alongside the random load: sparsified mincut
    // rejects eps >= 1, and the rejection must be a deterministic per-query
    // ok=false result, not a batch abort.
    for (const std::uint32_t victim : {std::uint32_t{1}, count / 2}) {
      batch[victim].kind = QueryKind::kMincut;
      batch[victim].karger_trials = 0;
      batch[victim].eps = 1.5;
    }
  }
  return batch;
}

void expect_same_result(const QueryResult& a, const QueryResult& b, const std::string& what) {
  EXPECT_EQ(a.id, b.id) << what;
  EXPECT_EQ(a.kind, b.kind) << what;
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.error, b.error) << what;
  EXPECT_EQ(a.congestion, b.congestion) << what;
  EXPECT_EQ(a.dilation, b.dilation) << what;
  EXPECT_EQ(a.value, b.value) << what;
  EXPECT_EQ(a.cardinality, b.cardinality) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.content_hash, b.content_hash) << what;
  EXPECT_EQ(a.digest(), b.digest()) << what;
}

/// The oracle: one query at a time through run() at one thread.
std::vector<QueryResult> oracle_results(const ShortcutService& svc,
                                        const std::vector<QueryRequest>& batch) {
  ThreadOverrideGuard guard;
  set_num_threads(1);
  std::vector<QueryResult> out;
  out.reserve(batch.size());
  for (const QueryRequest& q : batch) out.push_back(svc.run(q));
  return out;
}

/// One tenant whose budgets cover a whole batch (nothing is rate-limited),
/// pumped by hand: the plain bounded queue with strict per-class wave slots.
StreamingOptions single_tenant(unsigned cheap_slots, unsigned heavy_slots,
                               std::size_t max_queue = 1024) {
  StreamingOptions opt;
  opt.drain_thread = false;
  opt.max_queue = max_queue;
  opt.cheap_slots = cheap_slots;
  opt.heavy_slots = heavy_slots;
  opt.tenants = {TenantConfig{"solo", TokenBucketConfig{64, 0}, TokenBucketConfig{64, 0}}};
  return opt;
}

/// A batch pushed through admission in order, then drained: results are
/// positionally parallel to the batch; a shed arrival has an empty result
/// and its shed text.
struct AdmittedBatch {
  std::vector<QueryResult> results;
  std::vector<std::string> shed;
};

AdmittedBatch admit_batch(const ShortcutService& svc, const StreamingOptions& opt,
                          const std::vector<QueryRequest>& batch) {
  StreamingService stream(svc, opt);
  std::vector<StreamingService::Ticket> tickets;
  tickets.reserve(batch.size());
  for (const QueryRequest& q : batch) tickets.push_back(stream.submit("solo", q));
  stream.drain_until_idle();
  AdmittedBatch out;
  for (const StreamingService::Ticket& t : tickets) {
    out.results.push_back(t.admitted() ? stream.wait(t) : QueryResult{});
    out.shed.push_back(t.shed_text());
  }
  return out;
}

TEST(ServiceStress, RandomMixedBatchesMatchSequentialOracle) {
  const auto snap = fuzz_snapshot(21);
  const ShortcutService svc(snap, 5);
  Rng rng(1234);
  for (int round = 0; round < 3; ++round) {
    const auto batch = fuzz_batch(rng, 10, snap->num_vertices(), /*inject_errors=*/false);
    const std::vector<QueryResult> oracle = oracle_results(svc, batch);
    ThreadOverrideGuard guard;
    for (const unsigned threads : {1u, 2u, 8u}) {
      set_num_threads(threads);
      const std::vector<QueryResult> got = svc.run_batch(batch);
      ASSERT_EQ(got.size(), oracle.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        expect_same_result(got[i], oracle[i],
                           "round " + std::to_string(round) + " t" + std::to_string(threads) +
                               " query " + std::to_string(i));
    }
  }
}

TEST(ServiceStress, ErrorInjectionIsDeterministicAndContained) {
  // Bad eps on a connected snapshot + every kind on a disconnected one:
  // failures must be per-query, deterministic and oracle-identical.
  Rng rng(77);
  for (const bool disconnected : {false, true}) {
    const auto snap = disconnected ? disconnected_snapshot() : fuzz_snapshot(22, 150);
    const ShortcutService svc(snap, 9);
    const auto batch =
        fuzz_batch(rng, 12, snap->num_vertices(), /*inject_errors=*/!disconnected);
    const std::vector<QueryResult> oracle = oracle_results(svc, batch);
    bool saw_error = false;
    for (const QueryResult& r : oracle) saw_error = saw_error || !r.ok;
    EXPECT_TRUE(saw_error) << "fuzz case lost its error injection";

    ThreadOverrideGuard guard;
    for (const unsigned threads : {1u, 4u}) {
      set_num_threads(threads);
      const std::vector<QueryResult> got = svc.run_batch(batch);
      for (std::size_t i = 0; i < got.size(); ++i)
        expect_same_result(got[i], oracle[i], disconnected ? "disconnected" : "bad-eps");
    }
  }
}

TEST(ServiceStress, DuplicateIdsRejectedEverywhere) {
  const auto snap = fuzz_snapshot(23, 60);
  const ShortcutService svc(snap, 5);
  Rng rng(99);
  auto batch = fuzz_batch(rng, 6, snap->num_vertices(), false);
  batch.back().id = batch.front().id;
  EXPECT_THROW(svc.run_batch(batch), std::invalid_argument);

  // Streaming: a second submit of an in-flight id is refused, naming the
  // id, before it reaches the schedule or the ledger; once the first copy
  // is served the id is free again.
  StreamingService stream(svc, single_tenant(64, 64));
  const StreamingService::Ticket first = stream.submit("solo", batch.front());
  ASSERT_TRUE(first.admitted());
  try {
    (void)stream.submit("solo", batch.back());
    ADD_FAILURE() << "duplicate in-flight id was admitted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate in-flight query id " +
                                         std::to_string(batch.front().id)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(stream.arrivals(), 1u);
  EXPECT_EQ(stream.schedule().size(), 1u);
  EXPECT_EQ(stream.verdicts().size(), 1u);
  stream.drain_until_idle();
  EXPECT_EQ(stream.wait(first).digest(), svc.run(batch.front()).digest());
  const StreamingService::Ticket again = stream.submit("solo", batch.back());
  EXPECT_TRUE(again.admitted());
  stream.drain_until_idle();
  EXPECT_EQ(stream.wait(again).digest(), svc.run(batch.back()).digest());
}

TEST(ServiceStress, SaturatedAdmissionQueueMatchesIdleDigests) {
  // The overload case: a heavy-skewed batch through a tiny admission
  // configuration (every wave saturated, many waves deep) must produce the
  // very digests of idle one-at-a-time execution and of an unsaturated run.
  const auto snap = fuzz_snapshot(24);
  const ShortcutService svc(snap, 5);
  Rng rng(4321);
  const auto batch = fuzz_batch(rng, 14, snap->num_vertices(), false);
  const std::vector<QueryResult> oracle = oracle_results(svc, batch);

  // Saturated: max two queries in flight, a deep wave backlog.  Idle:
  // everything in wave 0.
  const StreamingOptions saturated = single_tenant(1, 1);
  const StreamingOptions idle = single_tenant(64, 64);

  ThreadOverrideGuard guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const std::vector<QueryResult> sat = admit_batch(svc, saturated, batch).results;
    const std::vector<QueryResult> unsat = admit_batch(svc, idle, batch).results;
    ASSERT_EQ(sat.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      expect_same_result(sat[i], oracle[i], "saturated t" + std::to_string(threads));
      expect_same_result(unsat[i], oracle[i], "idle t" + std::to_string(threads));
      EXPECT_GE(sat[i].wave, unsat[i].wave);  // saturation = later waves, same bytes
    }
    // Saturation is visible in telemetry only.
    bool deep = false;
    for (const QueryResult& r : sat) deep = deep || r.wave > 0;
    EXPECT_TRUE(deep);
    for (const QueryResult& r : unsat) EXPECT_EQ(r.wave, 0u);
  }
}

TEST(ServiceStress, AdmissionBoundRejectsDeterministicallyByPosition) {
  // Every arrival is submitted before the first wave, so the queue bound
  // sheds exactly the arrivals past it, with one exact text.
  const auto snap = fuzz_snapshot(25, 120);
  const ShortcutService svc(snap, 5);
  Rng rng(555);
  const auto batch = fuzz_batch(rng, 10, snap->num_vertices(), false);
  const std::vector<QueryResult> oracle = oracle_results(svc, batch);

  const StreamingOptions bounded = single_tenant(4, 2, /*max_queue=*/6);
  ThreadOverrideGuard guard;
  std::vector<std::uint64_t> reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const AdmittedBatch got = admit_batch(svc, bounded, batch);
    ASSERT_EQ(got.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i < bounded.max_queue) {
        EXPECT_EQ(got.shed[i], "");
        expect_same_result(got.results[i], oracle[i], "admitted");
      } else {
        EXPECT_EQ(got.shed[i], "shed: queue full (capacity 6)") << "arrival " << i;
      }
    }
    std::vector<std::uint64_t> ds;
    for (const QueryResult& r : got.results) ds.push_back(r.digest());
    if (reference.empty())
      reference = ds;
    else
      EXPECT_EQ(ds, reference);  // the admitted set is thread-independent too
  }
}

TEST(ServiceStress, CheapClassNeverWaitsOnHeavyBacklog) {
  // Structural starvation check: with strict per-class slots, cheap query k
  // runs in wave k / cheap_slots regardless of how much heavy work queues.
  const auto snap = fuzz_snapshot(26, 120);
  const ShortcutService svc(snap, 5);
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < 18; ++i) {
    QueryRequest q;
    q.id = 100 + i;
    // 15 heavy mincuts in front, 3 cheap quality queries at the back.
    q.kind = i < 15 ? QueryKind::kMincut : QueryKind::kShortcutQuality;
    q.karger_trials = i < 15 ? 4 : 0;
    batch.push_back(q);
  }
  const std::vector<QueryResult> got = admit_batch(svc, single_tenant(2, 2), batch).results;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (batch[i].kind == QueryKind::kShortcutQuality)
      EXPECT_LE(got[i].wave, 1u) << "cheap query starved behind heavy backlog";
  }
  // The heavy backlog itself drains at heavy_slots per wave.
  std::uint32_t max_wave = 0;
  for (const QueryResult& r : got) max_wave = std::max(max_wave, r.wave);
  EXPECT_EQ(max_wave, 7u);  // 15 heavy / 2 slots => waves 0..7
}

}  // namespace
